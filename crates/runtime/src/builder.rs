//! Cluster assembly: one way to build any protocol cluster.
//!
//! [`ClusterBuilder`] replaces the per-protocol `build_cluster`-style
//! constructors that used to be scattered across the workspace. It owns the
//! pieces every cluster needs — [`ProtocolParams`], a key directory, a
//! validity predicate, and a per-node [`NodeRole`] map — and asks the
//! protocol, through the [`ClusterProtocol`] trait, to construct each node.
//! The same builder value is consumed identically by both runtimes (see
//! [`crate::Runtime`]).

use fireledger::{
    AcceptAll, ClusterNode, EquivocatingNode, FloNode, SharedValidity, SilentProposerNode, Worker,
};
use fireledger_baselines::{BftSmartNode, HotStuffNode};
use fireledger_crypto::{CryptoPool, SharedCrypto, SimKeyStore};
use fireledger_exec::{ExecConfig, ExecShared, ExecStage};
use fireledger_store::{FsyncPolicy, NodeStore, RecoveredState};
use fireledger_types::{Error, NodeId, Protocol, ProtocolParams, Result, WireCodec, WorkerId};
use std::fmt;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The behaviour assigned to one node of a cluster.
///
/// Byzantine behaviours are *roles*, not fault plans — they change what a
/// node says, not what the network does — and compose freely with any
/// [`FaultPlan`](fireledger_types::FaultPlan). The two catalog snippets of
/// `docs/SCENARIOS.md`:
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use std::time::Duration;
///
/// // Silent proposer: every one of its turns forces a timeout + fallback.
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let cluster = ClusterBuilder::<FloCluster>::new(params)
///     .with_role(NodeId(3), NodeRole::SilentProposer);
/// let scenario = Scenario::new("silent").ideal().run_for(Duration::from_secs(2));
/// let report = Simulator.run(&cluster, &scenario).unwrap();
/// assert!(report.tps > 0.0);
/// ```
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use std::time::Duration;
///
/// // Equivocating proposer: chain validation catches the fork and the
/// // recovery procedure re-synchronizes.
/// let params = ProtocolParams::new(4).with_batch_size(8).with_tx_size(64);
/// let cluster = ClusterBuilder::<FloCluster>::new(params)
///     .with_role(NodeId(3), NodeRole::Equivocate);
/// let scenario = Scenario::new("byz").ideal().run_for(Duration::from_secs(2));
/// let report = Simulator.run(&cluster, &scenario).unwrap();
/// assert!(report.recoveries_per_sec > 0.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub enum NodeRole {
    /// An honest node that follows the protocol.
    #[default]
    Correct,
    /// An honest node that crashes (stops participating) at the given offset
    /// from the start of the run. The crash itself is enacted by the runtime.
    CrashAt(Duration),
    /// A Byzantine node that equivocates on every block it proposes (§7.4.2).
    Equivocate,
    /// A Byzantine node that participates in voting but never disseminates
    /// its own blocks, forcing a timeout + fallback on each of its turns.
    SilentProposer,
}

impl NodeRole {
    /// True for the Byzantine variants that require protocol-level support.
    pub fn is_byzantine(&self) -> bool {
        matches!(self, NodeRole::Equivocate | NodeRole::SilentProposer)
    }

    /// True for any role other than [`NodeRole::Correct`].
    pub fn is_faulty(&self) -> bool {
        !matches!(self, NodeRole::Correct)
    }
}

/// Everything a protocol needs to construct one node.
pub struct BuildContext {
    /// Protocol parameters shared by the whole cluster.
    pub params: ProtocolParams,
    /// The cluster key directory.
    pub crypto: SharedCrypto,
    /// The external validity predicate (protocols without external validity
    /// ignore it).
    pub validity: SharedValidity,
}

/// A protocol whose clusters [`ClusterBuilder`] can assemble.
///
/// Implemented by every protocol of the paper's experiment matrix:
///
/// | implementor       | protocol                                   |
/// |-------------------|--------------------------------------------|
/// | [`FloCluster`]    | FireLedger / FLO (ω workers per node)      |
/// | [`Worker`]        | a single WRB/OBBC FireLedger instance      |
/// | [`HotStuffNode`]  | chained HotStuff                           |
/// | [`BftSmartNode`]  | BFT-SMaRt-style pipelined ordering         |
///
/// The message bounds sit on the supertrait, not in a `where` clause, so
/// every `P: ClusterProtocol` bound implies them and generic code never
/// restates them.
pub trait ClusterProtocol:
    Protocol<Msg: WireCodec + Clone + Send + Sync + fmt::Debug + 'static> + Sized + Send + 'static
{
    /// Short machine-readable protocol name, used in [`crate::RunReport`]s.
    const NAME: &'static str;

    /// Constructs the node `me` with the given role.
    ///
    /// Returns [`Error::Config`] when the protocol has no implementation of
    /// the requested Byzantine behaviour — a mis-configured experiment should
    /// fail loudly, not silently run an honest node.
    fn build_node(ctx: &BuildContext, me: NodeId, role: &NodeRole) -> Result<Self>;

    /// Constructs the node `me` bound to a durable store, rebuilding its
    /// state from whatever the store replayed. Called instead of
    /// [`ClusterProtocol::build_node`] when the cluster was configured with
    /// [`ClusterBuilder::with_store`] — both at first build (the store is
    /// empty, the node starts fresh but persisting) and on a
    /// [`fireledger_types::KillFault`] restart (the node resumes from its
    /// recovered prefix).
    ///
    /// The default ignores the store and builds a volatile node, which is
    /// correct for protocols without a persistence implementation: they run
    /// unchanged under a store-configured cluster, they just do not survive
    /// kills.
    fn build_durable_node(
        ctx: &BuildContext,
        me: NodeId,
        role: &NodeRole,
        store: Arc<NodeStore>,
        recovered: &RecoveredState,
    ) -> Result<Self> {
        let _ = (store, recovered);
        Self::build_node(ctx, me, role)
    }

    /// Installs the cluster's execution shards on this (freshly built)
    /// node — one [`ExecShared`] per worker stream. Called when the cluster
    /// was configured with [`ClusterBuilder::with_execution`], after
    /// construction (and after any restore-from-disk, though the hooks are
    /// order-tolerant). The default does nothing, which is correct for
    /// protocols without an execution pipeline: they order transactions but
    /// never execute them, exactly as before.
    fn install_execution(&mut self, _shards: &[ExecShared]) {}

    /// Puts this (freshly built) node into state-sync mode: on start it
    /// probes the cluster's tips and range-fetches whatever prefix it is
    /// missing before participating in consensus. The runtimes call it on a
    /// node rebuilt for a [`ClusterBuilder::with_late_join`] entry, so a
    /// node constructed mid-run catches up through the block-fetch
    /// sub-protocol instead of stalling. The default does nothing — correct
    /// for protocols without a synchronizer, which simply rejoin blind.
    fn begin_state_sync(&mut self) {}
}

fn unsupported_role(name: &str, role: &NodeRole) -> Error {
    Error::Config(format!(
        "protocol {name} does not implement the {role:?} role"
    ))
}

/// The FireLedger/FLO cluster node type ([`ClusterNode`] under a name that
/// reads naturally in `ClusterBuilder::<FloCluster>` turbofish position).
pub type FloCluster = ClusterNode;

impl ClusterProtocol for ClusterNode {
    const NAME: &'static str = "flo";

    fn build_node(ctx: &BuildContext, me: NodeId, role: &NodeRole) -> Result<Self> {
        let flo = FloNode::new(
            me,
            ctx.params.clone(),
            ctx.crypto.clone(),
            ctx.validity.clone(),
        );
        Ok(match role {
            NodeRole::Correct | NodeRole::CrashAt(_) => ClusterNode::Honest(flo),
            NodeRole::Equivocate => {
                ClusterNode::Equivocating(EquivocatingNode::new(flo, ctx.crypto.clone()))
            }
            NodeRole::SilentProposer => ClusterNode::Silent(SilentProposerNode::new(flo)),
        })
    }

    fn build_durable_node(
        ctx: &BuildContext,
        me: NodeId,
        role: &NodeRole,
        store: Arc<NodeStore>,
        recovered: &RecoveredState,
    ) -> Result<Self> {
        // Byzantine wrappers stay volatile: their misbehaviour is process
        // state by design, and recovering an equivocator from disk is not a
        // scenario the paper (or any sane deployment) contemplates.
        if role.is_byzantine() {
            return Self::build_node(ctx, me, role);
        }
        Ok(ClusterNode::Honest(FloNode::recover_from_disk(
            me,
            ctx.params.clone(),
            ctx.crypto.clone(),
            ctx.validity.clone(),
            store,
            recovered,
        )))
    }

    fn install_execution(&mut self, shards: &[ExecShared]) {
        self.flo_mut().set_exec(shards);
    }

    fn begin_state_sync(&mut self) {
        self.flo_mut().begin_sync();
    }
}

impl ClusterProtocol for Worker {
    const NAME: &'static str = "wrb-obbc";

    fn build_node(ctx: &BuildContext, me: NodeId, role: &NodeRole) -> Result<Self> {
        if role.is_byzantine() {
            return Err(unsupported_role(Self::NAME, role));
        }
        Ok(Worker::new(
            me,
            WorkerId(0),
            ctx.params.clone(),
            ctx.crypto.clone(),
            ctx.validity.clone(),
        ))
    }

    fn install_execution(&mut self, shards: &[ExecShared]) {
        self.set_exec(shards[0].clone());
    }

    fn begin_state_sync(&mut self) {
        Worker::begin_sync(self);
    }
}

impl ClusterProtocol for HotStuffNode {
    const NAME: &'static str = "hotstuff";

    fn build_node(ctx: &BuildContext, me: NodeId, role: &NodeRole) -> Result<Self> {
        if role.is_byzantine() {
            return Err(unsupported_role(Self::NAME, role));
        }
        Ok(HotStuffNode::new(
            me,
            ctx.params.clone(),
            ctx.crypto.clone(),
        ))
    }
}

impl ClusterProtocol for BftSmartNode {
    const NAME: &'static str = "bft-smart";

    fn build_node(ctx: &BuildContext, me: NodeId, role: &NodeRole) -> Result<Self> {
        if role.is_byzantine() {
            return Err(unsupported_role(Self::NAME, role));
        }
        Ok(BftSmartNode::new(
            me,
            ctx.params.clone(),
            ctx.crypto.clone(),
        ))
    }
}

/// Assembles a cluster of any [`ClusterProtocol`].
///
/// ```
/// use fireledger_runtime::prelude::*;
///
/// let params = ProtocolParams::new(4).with_batch_size(10);
/// let nodes = ClusterBuilder::<FloCluster>::new(params)
///     .with_seed(7)
///     .with_role(NodeId(3), NodeRole::Equivocate)
///     .build()
///     .unwrap();
/// assert_eq!(nodes.len(), 4);
/// ```
pub struct ClusterBuilder<P> {
    params: ProtocolParams,
    seed: u64,
    crypto: Option<SharedCrypto>,
    validity: SharedValidity,
    roles: Vec<NodeRole>,
    store: Option<(PathBuf, FsyncPolicy)>,
    late_join: Option<(NodeId, u64)>,
    exec: Option<ExecConfig>,
    /// Per-node execution shards (one per worker stream), created lazily
    /// once per builder and shared by `build`, the rebuild hook and the
    /// report assembly — so a node rebuilt after a kill keeps its pre-kill
    /// engine identity (reset + replay) and the report reads the same
    /// engines the run fed.
    exec_shards: std::sync::OnceLock<Vec<Vec<ExecShared>>>,
    _protocol: PhantomData<fn() -> P>,
}

impl<P: ClusterProtocol> ClusterBuilder<P> {
    /// Starts a builder for an `params.n()`-node cluster with simulated
    /// (cheap) signatures, the accept-all validity predicate, and every node
    /// correct.
    pub fn new(params: ProtocolParams) -> Self {
        let n = params.n();
        ClusterBuilder {
            params,
            seed: 1,
            crypto: None,
            validity: std::sync::Arc::new(AcceptAll),
            roles: vec![NodeRole::Correct; n],
            store: None,
            late_join: None,
            exec: None,
            exec_shards: std::sync::OnceLock::new(),
            _protocol: PhantomData,
        }
    }

    /// The socket engine the TCP runtime spawns — vestigial (see
    /// [`fireledger_net::TcpEngine`]): kept because the repo benchmark
    /// passes it to `TcpCluster::spawn_engine`.
    pub fn tcp_engine(&self) -> fireledger_net::TcpEngine {
        fireledger_net::TcpEngine
    }

    /// Enables the pipelined execution engine (deterministic account/KV
    /// state machine, `fireledger-exec`) on every node: each worker stream
    /// gets an independent executor fed at the commit point, the node's own
    /// headers carry the lagged execution state root (WIRE_FORMAT.md §12),
    /// and delivered headers' claimed roots are cross-checked against local
    /// execution. Works identically on both runtimes — execution runs
    /// inline at the deterministic delivery points under the simulator and
    /// on dedicated stage threads under the real-time runtime. Protocols
    /// without an execution hook (the baselines) accept the configuration
    /// and simply keep ordering opaque payloads.
    ///
    /// The disjoint-workload scenario of docs/SCENARIOS.md: saturated
    /// *executable* filler ([`ProtocolParams::with_fill_ops`]) with
    /// `conflict_pct: 0`, so no two transactions touch the same account,
    /// and block contents are a pure function of the filler stream, which
    /// is what makes state roots comparable across runtimes at all:
    ///
    /// ```
    /// use fireledger_runtime::prelude::*;
    /// use std::time::Duration;
    ///
    /// let params = ProtocolParams::new(4)
    ///     .with_batch_size(8)
    ///     .with_tx_size(64)
    ///     .with_fill_ops(FillOps { accounts: 64, conflict_pct: 0 });
    /// let cluster = ClusterBuilder::<FloCluster>::new(params)
    ///     .with_execution(ExecConfig::with_genesis(64, 1_000_000));
    /// let scenario = Scenario::new("exec-disjoint")
    ///     .ideal()
    ///     .run_for(Duration::from_millis(400))
    ///     .with_warmup(Duration::ZERO);
    /// let report = Simulator.run(&cluster, &scenario).unwrap();
    /// assert!(report.execution.enabled);
    /// assert!(report.execution.applied_transitions > 0);
    /// assert_eq!(report.execution.root_mismatches, 0);
    /// ```
    pub fn with_execution(mut self, config: ExecConfig) -> Self {
        self.exec = Some(config);
        self
    }

    /// The execution configuration, when [`ClusterBuilder::with_execution`]
    /// set one.
    pub fn execution(&self) -> Option<&ExecConfig> {
        self.exec.as_ref()
    }

    /// The cluster's execution shards, `exec_shards()[node][worker]`,
    /// created on first use. `None` when execution is not enabled.
    pub fn exec_shards(&self) -> Option<&Vec<Vec<ExecShared>>> {
        let cfg = self.exec.as_ref()?;
        Some(self.exec_shards.get_or_init(|| {
            let pool = CryptoPool::inline(self.crypto());
            (0..self.params.n())
                .map(|_| {
                    (0..self.params.workers)
                        .map(|_| ExecShared::new(cfg, pool.clone()))
                        .collect()
                })
                .collect()
        }))
    }

    /// Spawns one execution stage thread per shard, so delivered blocks are
    /// executed *off* the consensus loop. Real-time runtimes call this once
    /// per run and hold the stages for its duration (they drain and join on
    /// drop); the simulator never does — its execution stays inline at the
    /// deterministic delivery points. Empty without
    /// [`ClusterBuilder::with_execution`].
    pub fn spawn_exec_stages(&self) -> Vec<ExecStage> {
        self.exec_shards()
            .map(|all| {
                all.iter()
                    .flatten()
                    .map(fireledger_exec::spawn_stage)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Starts `node` mid-run instead of at genesis: the node stays dormant
    /// (off the network, no protocol state) until the rest of the cluster
    /// has delivered `at_round` blocks, then enters in state-sync mode and
    /// range-fetches the ledger it missed (see `fireledger::Synchronizer`).
    ///
    /// Every runtime honours the entry: the simulator gates the node behind
    /// a `LateJoinAdversary` and rebuilds it at the join point; the
    /// real-time runtimes spawn its thread dormant and restart it through
    /// the rebuild hook. A dormant node counts against the cluster's fault
    /// budget like any other fault, and is excluded from rate metrics.
    ///
    /// ```
    /// use fireledger_runtime::prelude::*;
    /// use std::time::Duration;
    ///
    /// let params = ProtocolParams::new(4)
    ///     .with_batch_size(8)
    ///     .with_tx_size(64)
    ///     .with_base_timeout(Duration::from_millis(20));
    /// let scenario = Scenario::new("late-join")
    ///     .ideal()
    ///     .run_for(Duration::from_secs(2))
    ///     .with_warmup(Duration::ZERO);
    /// let cluster = ClusterBuilder::<FloCluster>::new(params)
    ///     .with_late_join(NodeId(3), 200); // join once node 0 has 200 blocks
    /// let (report, deliveries) = Simulator.run_full(&cluster, &scenario).unwrap();
    /// assert!(report.tps > 0.0);
    /// // The joiner fetched past its join point, byte-identical to the cluster.
    /// assert!(deliveries[3].len() > 200);
    /// let common = deliveries[0].len().min(deliveries[3].len());
    /// assert_eq!(deliveries[0][..common], deliveries[3][..common]);
    /// ```
    ///
    /// # Panics
    /// Panics if `node` is outside the cluster.
    pub fn with_late_join(mut self, node: NodeId, at_round: u64) -> Self {
        assert!(
            node.as_usize() < self.roles.len(),
            "late-join node {node} outside the cluster"
        );
        self.late_join = Some((node, at_round));
        self
    }

    /// The `(node, at_round)` late-join entry, when
    /// [`ClusterBuilder::with_late_join`] set one.
    pub fn late_join(&self) -> Option<(NodeId, u64)> {
        self.late_join
    }

    /// Gives every node a durable store under `dir` (node `i` persists into
    /// `dir/node-i`), syncing per `policy`.
    ///
    /// With a store configured, each node appends its committed blocks to a
    /// segmented block log and its not-yet-committed protocol state to a
    /// consensus WAL (see the `fireledger-store` crate), and a
    /// [`fireledger_types::KillFault`] in the scenario's fault plan can
    /// destroy the node's process state outright and rebuild it from disk
    /// mid-run. Protocols without a persistence implementation accept the
    /// configuration and simply stay volatile (see
    /// [`ClusterProtocol::build_durable_node`]).
    pub fn with_store(mut self, dir: impl Into<PathBuf>, policy: FsyncPolicy) -> Self {
        self.store = Some((dir.into(), policy));
        self
    }

    /// Vestigial and a no-op: every node runs its crypto inline on its own
    /// loop. Kept because the repo benchmark still calls it.
    pub fn crypto_threads(self, _threads: usize) -> Self {
        self
    }

    /// Seed for deterministic key derivation (and, by convention, for the
    /// scenario driving this cluster).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an explicit crypto provider instead of the seed-derived
    /// [`SimKeyStore`].
    pub fn with_crypto(mut self, crypto: SharedCrypto) -> Self {
        self.crypto = Some(crypto);
        self
    }

    /// Uses an explicit external validity predicate.
    pub fn with_validity(mut self, validity: SharedValidity) -> Self {
        self.validity = validity;
        self
    }

    /// Assigns `role` to `node`.
    ///
    /// # Panics
    /// Panics if `node` is outside the cluster.
    pub fn with_role(mut self, node: NodeId, role: NodeRole) -> Self {
        self.roles[node.as_usize()] = role;
        self
    }

    /// Assigns `role` to the last `k` nodes — the shape of the paper's fault
    /// experiments (§7.4), which always fail the tail of the cluster.
    pub fn with_last_k(mut self, k: usize, role: NodeRole) -> Self {
        let n = self.roles.len();
        for i in n.saturating_sub(k)..n {
            self.roles[i] = role.clone();
        }
        self
    }

    /// The protocol parameters this builder was created with.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The builder's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The role map.
    pub fn roles(&self) -> &[NodeRole] {
        &self.roles
    }

    /// The nodes whose role is [`NodeRole::Correct`] — the set experiment
    /// metrics average over.
    pub fn correct_nodes(&self) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_faulty())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// The `(node, offset)` pairs of all [`NodeRole::CrashAt`] roles.
    pub fn crash_times(&self) -> Vec<(NodeId, Duration)> {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r {
                NodeRole::CrashAt(at) => Some((NodeId(i as u32), *at)),
                _ => None,
            })
            .collect()
    }

    /// The crypto provider the built cluster will share.
    pub fn crypto(&self) -> SharedCrypto {
        self.crypto
            .clone()
            .unwrap_or_else(|| SimKeyStore::generate(self.params.n(), self.seed).shared())
    }

    /// The directory node `node` persists into (`dir/node-<i>`), when a
    /// store is configured.
    pub fn node_store_dir(&self, node: NodeId) -> Option<PathBuf> {
        self.store
            .as_ref()
            .map(|(dir, _)| dir.join(format!("node-{}", node.0)))
    }

    /// The run report's `durability` value: `"none"` without a store,
    /// `"fsync-<label>"` (e.g. `fsync-always`, `fsync-every64`, `fsync-os`)
    /// with one.
    pub fn durability_label(&self) -> String {
        match &self.store {
            None => "none".to_string(),
            Some((_, policy)) => format!("fsync-{}", policy.label()),
        }
    }

    /// Vestigial: the same as [`ClusterBuilder::build`], kept because the
    /// repo benchmark still calls it.
    pub fn build_inline(&self) -> Result<Vec<P>> {
        self.build()
    }

    /// Builds the cluster: one node per index, with its assigned role.
    ///
    /// # The fault-budget invariant
    ///
    /// The combined number of faulty roles — [`NodeRole::CrashAt`] plus the
    /// Byzantine variants — must not exceed the cluster's tolerance
    /// `f = ⌊(n − 1) / 3⌋`. BFT safety and liveness are only guaranteed up
    /// to `f` faults, so a role map that schedules more is a mis-configured
    /// experiment whose results would be meaningless; it fails here with
    /// [`Error::FaultBudgetExceeded`] instead of silently running.
    /// (Scenario-level crash events and fault-plan node faults are validated
    /// against the same budget by the runtimes, which see both sides.)
    pub fn build(&self) -> Result<Vec<P>> {
        let faulty = self.roles.iter().filter(|r| r.is_faulty()).count();
        let f = self.params.f();
        if faulty > f {
            return Err(Error::FaultBudgetExceeded { faulty, f });
        }
        let ctx = BuildContext {
            params: self.params.clone(),
            crypto: self.crypto(),
            validity: self.validity.clone(),
        };
        // A builder reused across runs must hand each run pristine engines:
        // the shards are cached on the builder (so rebuild hooks and the
        // report see the same Arcs), so any state a previous run left in
        // them is cleared here.
        if let Some(all) = self.exec_shards() {
            for shard in all.iter().flatten() {
                let stats = shard.stats();
                if stats.executed_blocks > 0 || stats.root_checks > 0 {
                    shard.reset();
                }
            }
        }
        (0..self.params.n())
            .map(|i| {
                let me = NodeId(i as u32);
                let mut node = match self.node_store_dir(me) {
                    None => P::build_node(&ctx, me, &self.roles[i]),
                    Some(dir) => {
                        let (store, recovered) = NodeStore::open(&dir, self.store_policy())
                            .map_err(|e| Error::Io(format!("store open {}: {e}", dir.display())))?;
                        P::build_durable_node(&ctx, me, &self.roles[i], Arc::new(store), &recovered)
                    }
                }?;
                if let Some(all) = self.exec_shards() {
                    node.install_execution(&all[i]);
                }
                Ok(node)
            })
            .collect()
    }

    fn store_policy(&self) -> FsyncPolicy {
        self.store
            .as_ref()
            .map(|(_, p)| *p)
            .unwrap_or(FsyncPolicy::OsDefault)
    }

    /// The node-rebuild hook the runtimes install for
    /// [`fireledger_types::KillFault`] restarts: given a node id, it reopens
    /// the node's store (when one is configured), replays it, and constructs
    /// the node from the recovered state. Without a store the hook builds a
    /// fresh volatile node — a kill without a disk is total amnesia, and the
    /// restarted node rejoins with an empty ledger.
    ///
    /// The hook runs on node threads (real-time runtimes) or mid-simulation,
    /// so it cannot return an error; configuration problems were already
    /// surfaced by the initial [`ClusterBuilder::build`], and a store that
    /// fails to *open* on restart degrades to the amnesiac fresh build
    /// rather than taking the thread down.
    pub fn rebuilder(&self) -> Arc<dyn Fn(NodeId) -> P + Send + Sync> {
        let ctx = BuildContext {
            params: self.params.clone(),
            crypto: self.crypto(),
            validity: self.validity.clone(),
        };
        let roles = self.roles.clone();
        let store = self.store.clone();
        let exec_shards = self.exec_shards().cloned();
        Arc::new(move |me: NodeId| {
            let role = roles.get(me.as_usize()).cloned().unwrap_or_default();
            let durable = store.as_ref().and_then(|(dir, policy)| {
                let dir = dir.join(format!("node-{}", me.0));
                NodeStore::open(&dir, *policy).ok()
            });
            let mut node = match durable {
                Some((store, recovered)) => {
                    P::build_durable_node(&ctx, me, &role, Arc::new(store), &recovered)
                }
                None => P::build_node(&ctx, me, &role),
            }
            .expect("rebuilding a node that built at spawn time cannot fail");
            if let Some(shards) = &exec_shards {
                // A kill destroys process state: the node's engines restart
                // from genesis and re-execute whatever prefix the disk (or
                // state sync) can prove — `install_execution` re-feeds any
                // restored definite prefix after the reset.
                let mine = &shards[me.as_usize()];
                for shard in mine {
                    shard.reset();
                }
                node.install_execution(mine);
            }
            node
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::Protocol;

    fn params(n: usize) -> ProtocolParams {
        ProtocolParams::new(n).with_batch_size(4).with_tx_size(32)
    }

    #[test]
    fn builds_every_protocol_of_the_matrix() {
        let p = params(4);
        assert_eq!(
            ClusterBuilder::<FloCluster>::new(p.clone())
                .build()
                .unwrap()
                .len(),
            4
        );
        assert_eq!(
            ClusterBuilder::<Worker>::new(p.clone())
                .build()
                .unwrap()
                .len(),
            4
        );
        assert_eq!(
            ClusterBuilder::<HotStuffNode>::new(p.clone())
                .build()
                .unwrap()
                .len(),
            4
        );
        assert_eq!(
            ClusterBuilder::<BftSmartNode>::new(p)
                .build()
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn node_ids_are_sequential() {
        let nodes = ClusterBuilder::<FloCluster>::new(params(7))
            .build()
            .unwrap();
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.node_id(), NodeId(i as u32));
        }
    }

    #[test]
    fn byzantine_roles_wrap_flo_nodes() {
        // n = 7 tolerates f = 2, so two Byzantine roles stay inside the
        // fault budget `build()` enforces.
        let nodes = ClusterBuilder::<FloCluster>::new(params(7))
            .with_role(NodeId(5), NodeRole::SilentProposer)
            .with_role(NodeId(6), NodeRole::Equivocate)
            .build()
            .unwrap();
        assert!(matches!(nodes[0], ClusterNode::Honest(_)));
        assert!(matches!(nodes[5], ClusterNode::Silent(_)));
        assert!(matches!(nodes[6], ClusterNode::Equivocating(_)));
    }

    #[test]
    fn byzantine_roles_are_rejected_by_protocols_without_them() {
        let err = ClusterBuilder::<HotStuffNode>::new(params(4))
            .with_role(NodeId(3), NodeRole::Equivocate)
            .build()
            .err()
            .expect("equivocation must be rejected");
        assert!(err.to_string().contains("hotstuff"));
        assert!(ClusterBuilder::<BftSmartNode>::new(params(4))
            .with_role(NodeId(0), NodeRole::SilentProposer)
            .build()
            .is_err());
    }

    #[test]
    fn crash_roles_build_honest_nodes_and_report_times() {
        let b = ClusterBuilder::<FloCluster>::new(params(4))
            .with_role(NodeId(3), NodeRole::CrashAt(Duration::from_millis(100)));
        let nodes = b.build().unwrap();
        assert!(matches!(nodes[3], ClusterNode::Honest(_)));
        assert_eq!(
            b.crash_times(),
            vec![(NodeId(3), Duration::from_millis(100))]
        );
        assert_eq!(b.correct_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn fault_budget_over_f_is_a_typed_build_error() {
        // n = 4 tolerates f = 1: one crash role is fine, a second faulty
        // role of either flavour busts the budget.
        let ok = ClusterBuilder::<FloCluster>::new(params(4))
            .with_role(NodeId(3), NodeRole::CrashAt(Duration::ZERO));
        assert!(ok.build().is_ok());

        let crash_plus_byz = ClusterBuilder::<FloCluster>::new(params(4))
            .with_role(NodeId(2), NodeRole::CrashAt(Duration::ZERO))
            .with_role(NodeId(3), NodeRole::Equivocate);
        match crash_plus_byz.build() {
            Err(Error::FaultBudgetExceeded { faulty, f }) => {
                assert_eq!((faulty, f), (2, 1));
            }
            Err(other) => panic!("expected FaultBudgetExceeded, got {other:?}"),
            Ok(_) => panic!("over-budget role map must not build"),
        }

        let two_crashes = ClusterBuilder::<FloCluster>::new(params(4))
            .with_last_k(2, NodeRole::CrashAt(Duration::ZERO));
        assert!(matches!(
            two_crashes.build(),
            Err(Error::FaultBudgetExceeded { faulty: 2, f: 1 })
        ));

        // n = 7 tolerates f = 2: crash + equivocate together stay legal.
        let n7 = ClusterBuilder::<FloCluster>::new(params(7))
            .with_role(NodeId(5), NodeRole::CrashAt(Duration::ZERO))
            .with_role(NodeId(6), NodeRole::Equivocate);
        assert!(n7.build().is_ok());
    }

    #[test]
    fn with_last_k_marks_the_tail() {
        let b = ClusterBuilder::<FloCluster>::new(params(7)).with_last_k(2, NodeRole::Equivocate);
        assert_eq!(b.correct_nodes().len(), 5);
        assert!(b.roles()[5].is_byzantine());
        assert!(b.roles()[6].is_byzantine());
    }

    #[test]
    fn same_seed_same_keys() {
        let a = ClusterBuilder::<FloCluster>::new(params(4))
            .with_seed(9)
            .crypto();
        let b = ClusterBuilder::<FloCluster>::new(params(4))
            .with_seed(9)
            .crypto();
        let sig_a = a.sign(NodeId(0), b"x");
        assert!(b.verify(NodeId(0), b"x", &sig_a));
    }
}
