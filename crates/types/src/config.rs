//! Cluster and protocol configuration.
//!
//! The parameters mirror Table 2 of the paper: cluster size `n` (which fixes
//! `f = ⌊(n-1)/3⌋`), number of FLO workers `ω`, transaction size `σ` and batch
//! size `β`, plus the timing knobs of the optimistic path (base timeout, EMA
//! window) and the benign failure detector's threshold (§6.1.1).

use crate::ids::NodeId;
use std::time::Duration;

/// Static description of a cluster: its size and the derived fault threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of replicas `n`.
    pub n: usize,
    /// Maximum number of Byzantine replicas tolerated, `f < n/3`.
    pub f: usize,
}

impl ClusterConfig {
    /// Creates a cluster of `n` nodes with the maximal tolerated
    /// `f = ⌊(n-1)/3⌋`.
    ///
    /// # Panics
    /// Panics if `n < 4` (the smallest cluster that tolerates one fault).
    pub fn new(n: usize) -> Self {
        assert!(n >= 4, "a BFT cluster needs at least 4 nodes, got {n}");
        ClusterConfig { n, f: (n - 1) / 3 }
    }

    /// Creates a cluster with an explicit `f`.
    ///
    /// # Panics
    /// Panics unless `3f < n`.
    pub fn with_f(n: usize, f: usize) -> Self {
        assert!(3 * f < n, "requires 3f < n (got n={n}, f={f})");
        ClusterConfig { n, f }
    }

    /// Quorum size `n - f`: the number of votes / versions a node waits for.
    #[inline]
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// Byzantine-intersection quorum `2f + 1` used by PBFT-style phases.
    #[inline]
    pub fn bft_quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Iterator over all node ids in the cluster.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u32).map(NodeId)
    }
}

/// Profile for *executable* filler transactions (see
/// [`ProtocolParams::fill_ops`]).
///
/// The default filler pads blocks with opaque zeroed payloads — ordered and
/// counted but invisible to the execution state machine. With a `FillOps`
/// profile the filler emits deterministic account/KV operations instead
/// (`TxOp` payloads, WIRE_FORMAT.md §12.1), so saturated benchmarks and the
/// cross-runtime identity matrices exercise real state transitions while the
/// block contents stay a pure function of `(filler client, sequence)` — the
/// property that keeps saturated ledgers bit-identical across runtimes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillOps {
    /// Accounts `0..accounts` the generated transfers draw from; should be
    /// covered by the execution genesis so debits can succeed.
    pub accounts: u64,
    /// Percentage (0–100) of generated ops that target a small hot key set —
    /// the conflict knob: `0` yields fully disjoint footprints (every
    /// conflict component is a single op), `100` collapses most of a block
    /// into one serial component.
    pub conflict_pct: u8,
}

/// All tunable protocol parameters of a FireLedger / FLO deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolParams {
    /// Cluster description.
    pub cluster: ClusterConfig,
    /// Number of FLO workers ω (independent FireLedger instances per node).
    pub workers: usize,
    /// Batch size β: maximal number of transactions per block.
    pub batch_size: usize,
    /// Transaction size σ in bytes (used by workload generators; the protocol
    /// itself accepts transactions of any size).
    pub tx_size: usize,
    /// Initial / base value of the WRB delivery timeout (Algorithm 1 line 1).
    pub base_timeout: Duration,
    /// Upper bound the adaptive timeout may grow to.
    pub max_timeout: Duration,
    /// Window length `N` of the exponential-moving-average timeout tuner
    /// (§6.1.1, "Dynamically Tuning the Timeout").
    pub ema_window: usize,
    /// Whether to pad proposed blocks with filler transactions up to
    /// `batch_size` when the pool runs dry (the paper's evaluation "simulates
    /// an intensive load by filling every block to its maximal size", §7.2).
    pub fill_blocks: bool,
    /// When set (and [`ProtocolParams::fill_blocks`] is on), filler
    /// transactions carry deterministic executable ops instead of opaque
    /// zeroed payloads — see [`FillOps`].
    pub fill_ops: Option<FillOps>,
    /// Threshold (as a multiple of the base timeout) after which the failure
    /// detector starts suspecting a silent node.
    pub fd_suspect_threshold: u32,
}

impl ProtocolParams {
    /// Reasonable defaults for an `n`-node cluster: ω = 1, β = 100, σ = 512 B,
    /// 50 ms base timeout.
    pub fn new(n: usize) -> Self {
        ProtocolParams {
            cluster: ClusterConfig::new(n),
            workers: 1,
            batch_size: 100,
            tx_size: 512,
            base_timeout: Duration::from_millis(50),
            max_timeout: Duration::from_secs(5),
            ema_window: 16,
            fill_blocks: true,
            fill_ops: None,
            fd_suspect_threshold: 8,
        }
    }

    /// Builder-style setter for the number of workers ω.
    ///
    /// Clamped to `1..=TimerId::MAX_WORKERS`: the worker index must fit the
    /// 8-bit worker field of [`crate::runtime::TimerId`].
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.clamp(1, crate::runtime::TimerId::MAX_WORKERS);
        self
    }

    /// Builder-style setter for the batch size β.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Builder-style setter for the transaction size σ.
    pub fn with_tx_size(mut self, tx_size: usize) -> Self {
        self.tx_size = tx_size;
        self
    }

    /// Builder-style setter for the base timeout.
    pub fn with_base_timeout(mut self, timeout: Duration) -> Self {
        self.base_timeout = timeout;
        self
    }

    /// Builder-style setter for the fault threshold `f` (keeps `n`).
    pub fn with_f(mut self, f: usize) -> Self {
        self.cluster = ClusterConfig::with_f(self.cluster.n, f);
        self
    }

    /// Builder-style setter for block filling under light load.
    pub fn with_fill_blocks(mut self, fill: bool) -> Self {
        self.fill_blocks = fill;
        self
    }

    /// Builder-style setter for the executable-filler profile (implies
    /// nothing about [`ProtocolParams::fill_blocks`], which must still be
    /// on for any filler to be generated).
    pub fn with_fill_ops(mut self, ops: FillOps) -> Self {
        self.fill_ops = Some(ops);
        self
    }

    /// Convenience accessors mirroring the paper's notation.
    #[inline]
    pub fn n(&self) -> usize {
        self.cluster.n
    }

    /// The fault threshold `f`.
    #[inline]
    pub fn f(&self) -> usize {
        self.cluster.f
    }

    /// Quorum size `n - f`.
    #[inline]
    pub fn quorum(&self) -> usize {
        self.cluster.quorum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_is_derived_from_n() {
        assert_eq!(ClusterConfig::new(4).f, 1);
        assert_eq!(ClusterConfig::new(7).f, 2);
        assert_eq!(ClusterConfig::new(10).f, 3);
        assert_eq!(ClusterConfig::new(100).f, 33);
    }

    #[test]
    fn quorums() {
        let c = ClusterConfig::new(10);
        assert_eq!(c.quorum(), 7);
        assert_eq!(c.bft_quorum(), 7);
        let c4 = ClusterConfig::new(4);
        assert_eq!(c4.quorum(), 3);
        assert_eq!(c4.bft_quorum(), 3);
    }

    #[test]
    #[should_panic(expected = "at least 4 nodes")]
    fn too_small_cluster_panics() {
        ClusterConfig::new(3);
    }

    #[test]
    #[should_panic(expected = "3f < n")]
    fn invalid_f_panics() {
        ClusterConfig::with_f(6, 2);
    }

    #[test]
    fn explicit_f_below_max_is_allowed() {
        // The HotStuff comparison (§7.6) runs with f = ⌊n/3⌋ - 1.
        let c = ClusterConfig::with_f(10, 2);
        assert_eq!(c.quorum(), 8);
    }

    #[test]
    fn nodes_iterator_enumerates_all() {
        let c = ClusterConfig::new(4);
        let ids: Vec<_> = c.nodes().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn params_builders() {
        let p = ProtocolParams::new(7)
            .with_workers(5)
            .with_batch_size(1000)
            .with_tx_size(4096)
            .with_fill_blocks(false)
            .with_base_timeout(Duration::from_millis(10));
        assert_eq!(p.n(), 7);
        assert_eq!(p.f(), 2);
        assert_eq!(p.quorum(), 5);
        assert_eq!(p.workers, 5);
        assert_eq!(p.batch_size, 1000);
        assert_eq!(p.tx_size, 4096);
        assert!(!p.fill_blocks);
        assert_eq!(p.base_timeout, Duration::from_millis(10));
    }

    #[test]
    fn workers_and_batch_clamped_to_one() {
        let p = ProtocolParams::new(4).with_workers(0).with_batch_size(0);
        assert_eq!(p.workers, 1);
        assert_eq!(p.batch_size, 1);
    }

    #[test]
    fn workers_clamped_to_timer_id_capacity() {
        let p = ProtocolParams::new(4).with_workers(100_000);
        assert_eq!(p.workers, crate::runtime::TimerId::MAX_WORKERS);
    }
}
