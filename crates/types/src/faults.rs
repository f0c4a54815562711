//! Declarative, runtime-agnostic fault injection.
//!
//! A [`FaultPlan`] is a plain value describing *everything adverse that
//! happens to a cluster's network and nodes* during a run: link faults
//! (drop / delay / reorder / duplicate), network partitions (split at an
//! offset, heal at a later one), and node faults (crash, or crash followed
//! by recovery). The same value is compiled into a per-runtime interceptor —
//! the simulator's `PlanAdversary` and the TCP runtime's frame interceptor —
//! so one plan exercises both runtimes identically (see `docs/SCENARIOS.md`
//! for the catalog of supported plans).
//!
//! ## Determinism
//!
//! Every random choice a plan makes is drawn from a **per-link**
//! deterministic RNG seeded from `(plan seed, from, to)`. Two consequences:
//!
//! * on the deterministic simulator, the same `(scenario seed, plan)` pair
//!   reproduces the exact same faulty execution, byte for byte;
//! * on the real-time runtimes, the *decision sequence per link* is a pure
//!   function of the plan seed and the number of messages the link carried —
//!   independent of thread scheduling on other links.
//!
//! ## Time base
//!
//! All offsets are [`Duration`]s from the start of the run — simulated time
//! on the simulator, wall-clock time on the real-time runtimes, exactly like
//! the offsets of scenario-level crash events.

use crate::ids::NodeId;
use crate::rng::DetRng;
use std::collections::HashMap;
use std::time::Duration;

/// Which links a [`LinkFault`] applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every directed link of the cluster.
    All,
    /// Every link whose sender is the given node.
    From(NodeId),
    /// Every link whose receiver is the given node.
    To(NodeId),
    /// Both directions between the two given nodes.
    Between(NodeId, NodeId),
}

impl LinkSelector {
    /// True when the directed link `from → to` is selected.
    pub fn matches(&self, from: NodeId, to: NodeId) -> bool {
        match self {
            LinkSelector::All => true,
            LinkSelector::From(n) => from == *n,
            LinkSelector::To(n) => to == *n,
            LinkSelector::Between(a, b) => (from == *a && to == *b) || (from == *b && to == *a),
        }
    }
}

/// The time window during which a fault is active: `[from, until)`, offsets
/// from the start of the run. `until = None` keeps the fault active for the
/// rest of the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// Start of the window (inclusive).
    pub from: Duration,
    /// End of the window (exclusive); `None` = until the end of the run.
    pub until: Option<Duration>,
}

impl FaultWindow {
    /// The whole run.
    pub const ALWAYS: FaultWindow = FaultWindow {
        from: Duration::ZERO,
        until: None,
    };

    /// A bounded window `[from, until)`.
    pub fn between(from: Duration, until: Duration) -> Self {
        FaultWindow {
            from,
            until: Some(until),
        }
    }

    /// A window open from `from` to the end of the run.
    pub fn starting_at(from: Duration) -> Self {
        FaultWindow { from, until: None }
    }

    /// True when offset `at` falls inside the window.
    pub fn contains(&self, at: Duration) -> bool {
        at >= self.from && self.until.is_none_or(|u| at < u)
    }
}

/// The adverse behaviour a [`LinkFault`] injects on each selected message.
///
/// Exactly one kind fires per fault per message (evaluated with one RNG draw
/// against the kind's probability); a plan composes kinds by listing several
/// faults.
#[derive(Clone, Debug, PartialEq)]
pub enum LinkFaultKind {
    /// Silently drop the message with the given probability.
    Drop {
        /// Per-message drop probability in `[0, 1]`.
        prob: f64,
    },
    /// Add an extra delay, uniform in `[min, max]`, to every message.
    /// Per-link FIFO order is preserved: a delayed message never overtakes,
    /// and is never overtaken on the simulator's modelled links.
    Delay {
        /// Minimal extra delay.
        min: Duration,
        /// Maximal extra delay.
        max: Duration,
    },
    /// With the given probability, hold the message back for an extra delay
    /// uniform in `[min, max]` **and let later messages overtake it** — the
    /// reordering fault. (On real links the held message bypasses the
    /// per-peer FIFO queue; on the simulator it is exempted from the
    /// per-link FIFO clamp.)
    Reorder {
        /// Per-message reorder probability in `[0, 1]`.
        prob: f64,
        /// Minimal hold-back.
        min: Duration,
        /// Maximal hold-back.
        max: Duration,
    },
    /// With the given probability, deliver the message twice: once normally
    /// and once more after an extra delay uniform in `[min, max]`.
    Duplicate {
        /// Per-message duplication probability in `[0, 1]`.
        prob: f64,
        /// Minimal delay of the duplicate copy.
        min: Duration,
        /// Maximal delay of the duplicate copy.
        max: Duration,
    },
}

/// One scheduled link fault: a [`LinkFaultKind`] applied to the messages of
/// the selected links during a time window.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFault {
    /// The links the fault applies to.
    pub links: LinkSelector,
    /// When the fault is active.
    pub window: FaultWindow,
    /// What the fault does.
    pub kind: LinkFaultKind,
}

/// A network partition: the cluster splits into groups at `at`; messages
/// crossing group boundaries are cut until `heal`. Nodes not listed in any
/// group form an implicit extra group of singletons — each unlisted node is
/// isolated from everyone.
///
/// ## Healing semantics: buffered, not lost
///
/// The paper's link model (§3.1) — and any TCP deployment — has *reliable*
/// links: a partition stalls traffic, it does not destroy it; retransmission
/// delivers everything once the route heals. A healing partition therefore
/// **buffers** cross-boundary messages and releases them at `heal` (the
/// engine turns them into a delay of `heal − now`), which is what lets
/// quorum-starved rounds resolve and commits resume after the split — the
/// stall/recovery shape the run-report timeline metrics measure. A
/// partition with `heal = None` is permanent and *drops*: there is no
/// future instant to deliver at.
///
/// ## Lossy partitions: heal the route, lose the traffic
///
/// A **lossy** partition (`lossy = true`) restores connectivity at `heal`
/// but *drops* everything sent across the boundary while it was up — the
/// shape of a routing outage where senders gave up and connections were
/// torn down. Nothing is replayed at heal, so a minority stranded behind a
/// lossy split can only rejoin by actively re-fetching what it missed
/// (the state-sync protocol), never by waiting for buffered retransmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// The side(s) of the split.
    pub groups: Vec<Vec<NodeId>>,
    /// When the split starts (offset from the start of the run).
    pub at: Duration,
    /// When the split heals (`None` = never).
    pub heal: Option<Duration>,
    /// True when cross-boundary traffic sent during the split is lost
    /// outright instead of buffered until heal.
    pub lossy: bool,
}

impl Partition {
    /// True when `from → to` traffic is cut by this partition at offset
    /// `at`.
    pub fn cuts(&self, from: NodeId, to: NodeId, at: Duration) -> bool {
        if at < self.at || self.heal.is_some_and(|h| at >= h) {
            return false;
        }
        let group_of = |n: NodeId| self.groups.iter().position(|g| g.contains(&n));
        match (group_of(from), group_of(to)) {
            (Some(a), Some(b)) => a != b,
            // An unlisted node is isolated from everyone (including other
            // unlisted nodes).
            _ => from != to,
        }
    }
}

/// One node fault: the node stops participating at `crash_at` and — for the
/// crash-recover shape — resumes at `recover_at` with its protocol state
/// intact (an unreachability window: events addressed to it during the
/// window are lost, its timers fire into the void).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeFault {
    /// The faulty node.
    pub node: NodeId,
    /// When it stops (offset from the start of the run).
    pub crash_at: Duration,
    /// When it resumes (`None` = a permanent crash).
    pub recover_at: Option<Duration>,
}

impl NodeFault {
    /// True when the node is down at offset `at`.
    pub fn down(&self, at: Duration) -> bool {
        at >= self.crash_at && self.recover_at.is_none_or(|r| at < r)
    }
}

/// A disk fault injected against a killed node's store directory between
/// its kill and its restart — so restart-from-disk recovery is exercised
/// against damaged media, not just the happy path. What each fault does to
/// the files is implemented by `fireledger-store`'s `inject` module; this
/// type is only the declarative description a [`FaultPlan`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// A write that only partially reached the disk: the active block-log
    /// segment loses its last `cut` bytes.
    TornWrite {
        /// Bytes chopped off the end of the active segment.
        cut: u64,
    },
    /// Silent media corruption: one bit of the log's tail record flips.
    CorruptTail,
    /// The volume fills up: appends fail after `after_bytes` more payload
    /// bytes, while reads keep working.
    DiskFull {
        /// Payload bytes the post-restart session may still write.
        after_bytes: u64,
    },
}

/// One kill-restart node fault: at `kill_at` the node's **process state is
/// destroyed** — threads torn down, every in-memory structure discarded —
/// and at `restart_at` the node is rebuilt *solely from its durable store*
/// and rejoins the cluster. Distinct from [`NodeFault`] with a recovery,
/// which merely pauses the node and resumes it with its state intact: a
/// `KillFault` is only survivable when the cluster was built with a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillFault {
    /// The node to kill.
    pub node: NodeId,
    /// When the process dies (offset from the start of the run).
    pub kill_at: Duration,
    /// When it is restarted from disk (`None` = never).
    pub restart_at: Option<Duration>,
    /// Damage applied to the node's store directory while it is down.
    pub disk_fault: Option<DiskFault>,
}

impl KillFault {
    /// True when the node is down (killed, not yet restarted) at offset
    /// `at`.
    pub fn down(&self, at: Duration) -> bool {
        at >= self.kill_at && self.restart_at.is_none_or(|r| at < r)
    }
}

/// A complete declarative fault schedule — see the module docs.
///
/// Plans are built fluently:
///
/// ```
/// use fireledger_types::faults::{FaultPlan, LinkSelector, FaultWindow};
/// use fireledger_types::NodeId;
/// use std::time::Duration;
///
/// let plan = FaultPlan::named("demo")
///     .with_seed(7)
///     .drop(LinkSelector::All,
///           FaultWindow::between(Duration::from_millis(200), Duration::from_millis(600)),
///           0.10)
///     .partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
///                Duration::from_millis(800), Some(Duration::from_millis(1200)))
///     .crash_recover(NodeId(3), Duration::from_millis(1400), Duration::from_millis(1600));
/// assert_eq!(plan.name, "demo");
/// assert_eq!(plan.link_faults.len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Human-readable plan name (recorded in run reports).
    pub name: String,
    /// Seed of the per-link fault RNGs (independent of the scenario seed, so
    /// the same adversity can be replayed against different workloads).
    pub seed: u64,
    /// Scheduled link faults, evaluated in order per message (the first
    /// fault whose probability draw fires decides the message's fate).
    pub link_faults: Vec<LinkFault>,
    /// Network partitions. A message crossing an active partition boundary
    /// is buffered until the heal (dropped when the partition never heals)
    /// before link faults are even consulted — see [`Partition`].
    pub partitions: Vec<Partition>,
    /// Node crash / crash-recover faults.
    pub node_faults: Vec<NodeFault>,
    /// Kill-restart faults: process state destroyed, node rebuilt from its
    /// durable store (optionally with damage injected against the store
    /// while the node is down).
    pub kill_faults: Vec<KillFault>,
}

impl FaultPlan {
    /// An empty plan with the given name and seed 1.
    pub fn named(name: impl Into<String>) -> Self {
        FaultPlan {
            name: name.into(),
            seed: 1,
            ..Default::default()
        }
    }

    /// Sets the fault RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a probabilistic message-drop fault.
    pub fn drop(mut self, links: LinkSelector, window: FaultWindow, prob: f64) -> Self {
        self.link_faults.push(LinkFault {
            links,
            window,
            kind: LinkFaultKind::Drop { prob },
        });
        self
    }

    /// Adds a uniform extra-delay fault (FIFO-preserving).
    pub fn delay(
        mut self,
        links: LinkSelector,
        window: FaultWindow,
        min: Duration,
        max: Duration,
    ) -> Self {
        self.link_faults.push(LinkFault {
            links,
            window,
            kind: LinkFaultKind::Delay { min, max },
        });
        self
    }

    /// Adds a probabilistic reordering fault (held-back messages are
    /// overtaken by later ones).
    pub fn reorder(
        mut self,
        links: LinkSelector,
        window: FaultWindow,
        prob: f64,
        min: Duration,
        max: Duration,
    ) -> Self {
        self.link_faults.push(LinkFault {
            links,
            window,
            kind: LinkFaultKind::Reorder { prob, min, max },
        });
        self
    }

    /// Adds a probabilistic duplication fault.
    pub fn duplicate(
        mut self,
        links: LinkSelector,
        window: FaultWindow,
        prob: f64,
        min: Duration,
        max: Duration,
    ) -> Self {
        self.link_faults.push(LinkFault {
            links,
            window,
            kind: LinkFaultKind::Duplicate { prob, min, max },
        });
        self
    }

    /// Adds a partition that splits the cluster into `groups` at `at` and
    /// heals at `heal` (`None` = never). Cross-boundary traffic is buffered
    /// until the heal — or lost when there is none (see [`Partition`]).
    pub fn partition(
        mut self,
        groups: Vec<Vec<NodeId>>,
        at: Duration,
        heal: Option<Duration>,
    ) -> Self {
        self.partitions.push(Partition {
            groups,
            at,
            heal,
            lossy: false,
        });
        self
    }

    /// Adds a **lossy** partition: the split heals at `heal` like
    /// [`FaultPlan::partition`], but cross-boundary traffic sent during the
    /// split is *dropped*, not buffered — the stranded side must re-fetch
    /// what it missed through state sync (see [`Partition`]).
    pub fn partition_lossy(
        mut self,
        groups: Vec<Vec<NodeId>>,
        at: Duration,
        heal: Option<Duration>,
    ) -> Self {
        self.partitions.push(Partition {
            groups,
            at,
            heal,
            lossy: true,
        });
        self
    }

    /// Adds a permanent crash of `node` at `at`.
    pub fn crash(mut self, node: NodeId, at: Duration) -> Self {
        self.node_faults.push(NodeFault {
            node,
            crash_at: at,
            recover_at: None,
        });
        self
    }

    /// Adds a crash of `node` at `at` followed by a recovery at `recover`.
    pub fn crash_recover(mut self, node: NodeId, at: Duration, recover: Duration) -> Self {
        self.node_faults.push(NodeFault {
            node,
            crash_at: at,
            recover_at: Some(recover),
        });
        self
    }

    /// Adds a kill of `node` at `at` with no restart: the process dies and
    /// stays dead (its store, if any, survives on disk).
    pub fn kill(mut self, node: NodeId, at: Duration) -> Self {
        self.kill_faults.push(KillFault {
            node,
            kill_at: at,
            restart_at: None,
            disk_fault: None,
        });
        self
    }

    /// Adds a kill of `node` at `kill_at` followed by a restart-from-disk
    /// at `restart`: the node's process state is destroyed and rebuilt from
    /// its durable store alone.
    pub fn kill_restart(mut self, node: NodeId, kill_at: Duration, restart: Duration) -> Self {
        self.kill_faults.push(KillFault {
            node,
            kill_at,
            restart_at: Some(restart),
            disk_fault: None,
        });
        self
    }

    /// Like [`FaultPlan::kill_restart`], additionally damaging the node's
    /// store directory with `disk` while the node is down — replay must
    /// then recover the longest valid prefix.
    pub fn kill_restart_injecting(
        mut self,
        node: NodeId,
        kill_at: Duration,
        restart: Duration,
        disk: DiskFault,
    ) -> Self {
        self.kill_faults.push(KillFault {
            node,
            kill_at,
            restart_at: Some(restart),
            disk_fault: Some(disk),
        });
        self
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty()
            && self.partitions.is_empty()
            && self.node_faults.is_empty()
            && self.kill_faults.is_empty()
    }

    /// True when `node` is down (crashed or killed, not yet recovered or
    /// restarted) at offset `at`. Kill windows count as downtime exactly
    /// like crash windows, so every runtime's traffic suppression and the
    /// simulator's event suppression cover them for free.
    pub fn node_down(&self, node: NodeId, at: Duration) -> bool {
        self.node_faults
            .iter()
            .any(|f| f.node == node && f.down(at))
            || self
                .kill_faults
                .iter()
                .any(|f| f.node == node && f.down(at))
    }

    /// The nodes with any node fault (crashed or killed at any point, even
    /// if they recover) — the set run reports exclude from rate averages.
    pub fn faulted_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.node_faults.iter().map(|f| f.node).collect();
        nodes.extend(self.kill_faults.iter().map(|f| f.node));
        nodes.sort_by_key(|n| n.0);
        nodes.dedup();
        nodes
    }

    /// True when `from → to` traffic is cut by an active partition at `at`.
    pub fn partitioned(&self, from: NodeId, to: NodeId, at: Duration) -> bool {
        self.partitions.iter().any(|p| p.cuts(from, to, at))
    }

    /// How an active partition treats `from → to` traffic at `at`:
    /// `None` when no partition cuts the link, `Some(None)` when a
    /// permanent **or lossy** partition drops it, `Some(Some(heal))` when
    /// the traffic is buffered until the latest heal instant of the
    /// partitions cutting it.
    pub fn partition_cut(
        &self,
        from: NodeId,
        to: NodeId,
        at: Duration,
    ) -> Option<Option<Duration>> {
        let mut release: Option<Option<Duration>> = None;
        for p in &self.partitions {
            if !p.cuts(from, to, at) {
                continue;
            }
            // A lossy partition loses the traffic even though it heals;
            // a permanent partition has no heal instant to deliver at.
            let heal = if p.lossy { None } else { p.heal };
            release = match (release, heal) {
                // Any dropping partition wins: the message is gone.
                (_, None) | (Some(None), _) => Some(None),
                (Some(Some(prev)), Some(h)) => Some(Some(prev.max(h))),
                (None, Some(h)) => Some(Some(h)),
            };
        }
        release
    }
}

/// The fate the fault engine assigns to one message on one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkDecision {
    /// Deliver normally.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver after an extra delay, preserving per-link FIFO order.
    Delay(Duration),
    /// Deliver after an extra delay, allowing later messages to overtake.
    Reorder(Duration),
    /// Deliver normally **and** deliver a second copy after the extra delay.
    Duplicate(Duration),
}

/// Mixes the plan seed with a link's endpoints into the link's RNG seed.
fn link_seed(seed: u64, from: NodeId, to: NodeId) -> u64 {
    // SplitMix-style finalizer over (seed, from, to): cheap, and adjacent
    // links get statistically independent streams.
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + from.0 as u64))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(1 + to.0 as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(rng: &mut DetRng, min: Duration, max: Duration) -> Duration {
    if max <= min {
        return min;
    }
    let span = (max - min).as_nanos().min(u64::MAX as u128) as u64;
    min + Duration::from_nanos(rng.gen_range_inclusive(0, span))
}

/// The shared decision engine: a [`FaultPlan`] plus one deterministic RNG
/// per directed link. All three runtime interceptors delegate here, so the
/// drop/delay/reorder/duplicate semantics (and their determinism) are
/// defined exactly once.
#[derive(Clone, Debug)]
pub struct LinkFaultEngine {
    plan: FaultPlan,
    links: HashMap<(u32, u32), DetRng>,
}

impl LinkFaultEngine {
    /// Builds the engine for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        LinkFaultEngine {
            plan,
            links: HashMap::new(),
        }
    }

    /// The plan driving this engine.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one message on the directed link `from → to` at
    /// offset `at` from the start of the run.
    ///
    /// Partitions and node downtime are checked first (both drop); then the
    /// plan's link faults are evaluated in order, each consuming exactly one
    /// RNG draw from the link's stream whenever its selector and window
    /// match, so the decision sequence per link is deterministic in the plan
    /// seed and the per-link message count alone.
    pub fn decide(&mut self, from: NodeId, to: NodeId, at: Duration) -> LinkDecision {
        // A down node loses its traffic outright (the process is dead);
        // a healing partition only stalls traffic (reliable links — see
        // [`Partition`]): the message is buffered and released at heal.
        if self.plan.node_down(from, at) || self.plan.node_down(to, at) {
            return LinkDecision::Drop;
        }
        match self.plan.partition_cut(from, to, at) {
            Some(None) => return LinkDecision::Drop,
            Some(Some(heal)) => {
                return LinkDecision::Delay(heal.saturating_sub(at));
            }
            None => {}
        }
        let mut decision = LinkDecision::Deliver;
        let seed = self.plan.seed;
        let rng = self
            .links
            .entry((from.0, to.0))
            .or_insert_with(|| DetRng::seed_from_u64(link_seed(seed, from, to)));
        for fault in &self.plan.link_faults {
            if !fault.links.matches(from, to) || !fault.window.contains(at) {
                continue;
            }
            // Every matching fault consumes its draws even after a decision
            // fired, so one fault's outcome never perturbs another fault's
            // stream.
            match &fault.kind {
                LinkFaultKind::Drop { prob } => {
                    let fire = rng.gen_f64() < *prob;
                    if fire && decision == LinkDecision::Deliver {
                        decision = LinkDecision::Drop;
                    }
                }
                LinkFaultKind::Delay { min, max } => {
                    let d = uniform(rng, *min, *max);
                    if decision == LinkDecision::Deliver {
                        decision = LinkDecision::Delay(d);
                    }
                }
                LinkFaultKind::Reorder { prob, min, max } => {
                    let fire = rng.gen_f64() < *prob;
                    let d = uniform(rng, *min, *max);
                    if fire && decision == LinkDecision::Deliver {
                        decision = LinkDecision::Reorder(d);
                    }
                }
                LinkFaultKind::Duplicate { prob, min, max } => {
                    let fire = rng.gen_f64() < *prob;
                    let d = uniform(rng, *min, *max);
                    if fire && decision == LinkDecision::Deliver {
                        decision = LinkDecision::Duplicate(d);
                    }
                }
            }
        }
        decision
    }

    /// True when `node` is down at offset `at` (see [`FaultPlan::node_down`]).
    pub fn node_down(&self, node: NodeId, at: Duration) -> bool {
        self.plan.node_down(node, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn selectors_match_the_right_links() {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        assert!(LinkSelector::All.matches(a, b));
        assert!(LinkSelector::From(a).matches(a, b));
        assert!(!LinkSelector::From(a).matches(b, a));
        assert!(LinkSelector::To(b).matches(a, b));
        assert!(!LinkSelector::To(b).matches(b, c));
        assert!(LinkSelector::Between(a, b).matches(a, b));
        assert!(LinkSelector::Between(a, b).matches(b, a));
        assert!(!LinkSelector::Between(a, b).matches(a, c));
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow::between(ms(100), ms(200));
        assert!(!w.contains(ms(99)));
        assert!(w.contains(ms(100)));
        assert!(w.contains(ms(199)));
        assert!(!w.contains(ms(200)));
        assert!(FaultWindow::ALWAYS.contains(Duration::ZERO));
        assert!(FaultWindow::starting_at(ms(50)).contains(ms(1000)));
        assert!(!FaultWindow::starting_at(ms(50)).contains(ms(49)));
    }

    #[test]
    fn partitions_cut_cross_group_traffic_until_heal() {
        let p = Partition {
            groups: vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
            at: ms(100),
            heal: Some(ms(200)),
            lossy: false,
        };
        // Before the split and after the heal everything flows.
        assert!(!p.cuts(NodeId(0), NodeId(2), ms(99)));
        assert!(!p.cuts(NodeId(0), NodeId(2), ms(200)));
        // During the split, cross-group traffic is cut, intra-group is not.
        assert!(p.cuts(NodeId(0), NodeId(2), ms(150)));
        assert!(p.cuts(NodeId(3), NodeId(1), ms(100)));
        assert!(!p.cuts(NodeId(0), NodeId(1), ms(150)));
        assert!(!p.cuts(NodeId(2), NodeId(3), ms(150)));
        // Unlisted nodes are isolated from everyone.
        assert!(p.cuts(NodeId(4), NodeId(0), ms(150)));
        assert!(p.cuts(NodeId(4), NodeId(5), ms(150)));
    }

    #[test]
    fn node_faults_cover_crash_and_crash_recover() {
        let plan = FaultPlan::named("nf")
            .crash(NodeId(1), ms(100))
            .crash_recover(NodeId(2), ms(100), ms(300));
        assert!(!plan.node_down(NodeId(1), ms(99)));
        assert!(plan.node_down(NodeId(1), ms(100)));
        assert!(plan.node_down(NodeId(1), ms(100_000)));
        assert!(plan.node_down(NodeId(2), ms(200)));
        assert!(!plan.node_down(NodeId(2), ms(300)));
        assert_eq!(plan.faulted_nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn engine_decisions_are_deterministic_per_link_seed() {
        let plan =
            FaultPlan::named("det")
                .with_seed(9)
                .drop(LinkSelector::All, FaultWindow::ALWAYS, 0.3);
        let decide_n = |n: usize| {
            let mut e = LinkFaultEngine::new(plan.clone());
            (0..n)
                .map(|_| e.decide(NodeId(0), NodeId(1), ms(10)))
                .collect::<Vec<_>>()
        };
        assert_eq!(decide_n(64), decide_n(64));
        // A different seed gives a different decision stream.
        let mut other = LinkFaultEngine::new(plan.clone().with_seed(10));
        let stream: Vec<_> = (0..64)
            .map(|_| other.decide(NodeId(0), NodeId(1), ms(10)))
            .collect();
        assert_ne!(stream, decide_n(64));
        // Around 30% of messages drop.
        let drops = decide_n(1000)
            .iter()
            .filter(|d| **d == LinkDecision::Drop)
            .count();
        assert!((200..400).contains(&drops), "drop rate off: {drops}/1000");
    }

    #[test]
    fn per_link_streams_are_independent() {
        // Interleaving traffic on link (0,1) must not change the decisions
        // taken on link (2,3).
        let plan =
            FaultPlan::named("ind")
                .with_seed(4)
                .drop(LinkSelector::All, FaultWindow::ALWAYS, 0.5);
        let mut quiet = LinkFaultEngine::new(plan.clone());
        let alone: Vec<_> = (0..32)
            .map(|_| quiet.decide(NodeId(2), NodeId(3), ms(1)))
            .collect();
        let mut noisy = LinkFaultEngine::new(plan);
        let mut interleaved = Vec::new();
        for _ in 0..32 {
            noisy.decide(NodeId(0), NodeId(1), ms(1));
            interleaved.push(noisy.decide(NodeId(2), NodeId(3), ms(1)));
        }
        assert_eq!(alone, interleaved);
    }

    #[test]
    fn delays_stay_inside_their_bounds() {
        let plan =
            FaultPlan::named("delay").delay(LinkSelector::All, FaultWindow::ALWAYS, ms(2), ms(5));
        let mut e = LinkFaultEngine::new(plan);
        for _ in 0..200 {
            match e.decide(NodeId(0), NodeId(1), ms(1)) {
                LinkDecision::Delay(d) => assert!(d >= ms(2) && d <= ms(5), "{d:?}"),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn faults_outside_their_window_or_links_do_nothing() {
        let plan = FaultPlan::named("scoped").drop(
            LinkSelector::From(NodeId(7)),
            FaultWindow::between(ms(100), ms(200)),
            1.0,
        );
        let mut e = LinkFaultEngine::new(plan);
        // Wrong link.
        assert_eq!(
            e.decide(NodeId(0), NodeId(1), ms(150)),
            LinkDecision::Deliver
        );
        // Right link, wrong time.
        assert_eq!(
            e.decide(NodeId(7), NodeId(1), ms(50)),
            LinkDecision::Deliver
        );
        // Right link, right time: prob 1.0 always drops.
        assert_eq!(e.decide(NodeId(7), NodeId(1), ms(150)), LinkDecision::Drop);
    }

    #[test]
    fn partition_and_node_downtime_beat_link_faults() {
        let plan = FaultPlan::named("p")
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], ms(0), Some(ms(100)))
            .crash_recover(NodeId(2), ms(0), ms(100))
            .duplicate(LinkSelector::All, FaultWindow::ALWAYS, 1.0, ms(1), ms(1));
        let mut e = LinkFaultEngine::new(plan);
        // A healing partition buffers: the message is delayed to the heal
        // instant, not lost.
        assert_eq!(
            e.decide(NodeId(0), NodeId(1), ms(50)),
            LinkDecision::Delay(ms(50))
        );
        // A down endpoint loses the message outright.
        assert_eq!(e.decide(NodeId(3), NodeId(2), ms(50)), LinkDecision::Drop);
        // After heal/recovery the duplicate fault takes over.
        assert!(matches!(
            e.decide(NodeId(0), NodeId(1), ms(150)),
            LinkDecision::Duplicate(_)
        ));
    }

    #[test]
    fn permanent_partitions_drop_and_overlaps_release_latest() {
        let forever = FaultPlan::named("forever").partition(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            ms(0),
            None,
        );
        let mut e = LinkFaultEngine::new(forever);
        assert_eq!(e.decide(NodeId(0), NodeId(1), ms(10)), LinkDecision::Drop);

        // Two overlapping healing partitions: buffered until the later heal.
        let overlap = FaultPlan::named("overlap")
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], ms(0), Some(ms(100)))
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], ms(0), Some(ms(300)));
        assert_eq!(
            overlap.partition_cut(NodeId(0), NodeId(1), ms(10)),
            Some(Some(ms(300)))
        );
        // Permanent + healing = permanent.
        let mixed = FaultPlan::named("mixed")
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], ms(0), Some(ms(100)))
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], ms(0), None);
        assert_eq!(
            mixed.partition_cut(NodeId(0), NodeId(1), ms(10)),
            Some(None)
        );
    }

    #[test]
    fn lossy_partitions_heal_the_route_but_drop_the_traffic() {
        let plan = FaultPlan::named("lossy").partition_lossy(
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            ms(0),
            Some(ms(100)),
        );
        // During the split the message is lost, not buffered to the heal.
        assert_eq!(plan.partition_cut(NodeId(0), NodeId(1), ms(50)), Some(None));
        let mut e = LinkFaultEngine::new(plan.clone());
        assert_eq!(e.decide(NodeId(0), NodeId(1), ms(50)), LinkDecision::Drop);
        // After the heal the route works again.
        assert_eq!(
            e.decide(NodeId(0), NodeId(1), ms(150)),
            LinkDecision::Deliver
        );
        assert!(!plan.partitioned(NodeId(0), NodeId(1), ms(150)));
        // A lossy split overlapping a buffering one still loses the message.
        let mixed = FaultPlan::named("mixed")
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], ms(0), Some(ms(80)))
            .partition_lossy(vec![vec![NodeId(0)], vec![NodeId(1)]], ms(0), Some(ms(100)));
        assert_eq!(
            mixed.partition_cut(NodeId(0), NodeId(1), ms(10)),
            Some(None)
        );
    }

    #[test]
    fn first_firing_fault_wins_but_streams_stay_stable() {
        // A plan with a drop fault before a duplicate fault: when the drop
        // fires the message is dropped; when it does not, the duplicate's
        // own (independent) draw decides. Removing neither fault perturbs
        // the message count ↔ draw alignment.
        let plan = FaultPlan::named("compose")
            .drop(LinkSelector::All, FaultWindow::ALWAYS, 0.5)
            .duplicate(LinkSelector::All, FaultWindow::ALWAYS, 1.0, ms(1), ms(2));
        let mut e = LinkFaultEngine::new(plan);
        let outcomes: Vec<_> = (0..100)
            .map(|_| e.decide(NodeId(0), NodeId(1), ms(1)))
            .collect();
        assert!(outcomes.contains(&LinkDecision::Drop));
        assert!(outcomes
            .iter()
            .any(|d| matches!(d, LinkDecision::Duplicate(_))));
        assert!(!outcomes.contains(&LinkDecision::Deliver));
    }
}
