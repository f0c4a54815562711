//! Fault injection: the hook every simulated message passes through.
//!
//! The simulator calls the [`Adversary`] hook for every message about to be
//! scheduled. The hook may pass the message through, drop it, delay it, or
//! duplicate it. Every protocol-agnostic fault — crashes, omissions, link
//! adversity, partitions — is a [`FaultPlan`] entry, compiled here into
//! [`PlanAdversary`]. Byzantine behaviours that need to understand
//! FireLedger's message format (e.g. "send different blocks to two halves of
//! the cluster", §7.4.2) are node roles implemented next to the protocol in
//! `fireledger`.

use crate::time::SimTime;
use fireledger_types::{FaultPlan, LinkDecision, LinkFaultEngine, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The fate of an intercepted message.
#[derive(Clone, Debug, PartialEq)]
pub enum Fate<M> {
    /// Deliver the message unchanged.
    Deliver(M),
    /// Deliver a (possibly different) message after an extra delay,
    /// preserving per-link FIFO order.
    DeliverDelayed(M, Duration),
    /// Deliver the message after an extra delay **exempt from the per-link
    /// FIFO clamp**, so later messages on the same link may overtake it —
    /// the reordering fault of a [`FaultPlan`].
    DeliverReordered(M, Duration),
    /// Deliver the message normally and deliver a second copy after the
    /// extra delay (both copies pay NIC bandwidth).
    DeliverDuplicated(M, Duration),
    /// Silently drop the message.
    Drop,
}

/// A fault-injection hook consulted for every message send.
pub trait Adversary<M>: Send {
    /// Decides what happens to `msg` sent from `from` to `to` at time `now`.
    fn intercept(&mut self, from: NodeId, to: NodeId, msg: M, now: SimTime) -> Fate<M>;

    /// True when `node` has crashed by time `now`; crashed nodes receive no
    /// events and send no messages.
    fn is_crashed(&self, _node: NodeId, _now: SimTime) -> bool {
        false
    }
}

/// The no-fault adversary: every message is delivered unchanged.
#[derive(Clone, Debug, Default)]
pub struct PassThrough;

impl<M> Adversary<M> for PassThrough {
    fn intercept(&mut self, _from: NodeId, _to: NodeId, msg: M, _now: SimTime) -> Fate<M> {
        Fate::Deliver(msg)
    }
}

/// The adversary compiled from a declarative [`FaultPlan`]: link faults,
/// partitions and node faults are all decided by the shared
/// [`LinkFaultEngine`], so the simulator injects *exactly* the adversity the
/// real-time runtimes' interceptors inject for the same plan.
#[derive(Clone, Debug)]
pub struct PlanAdversary {
    engine: LinkFaultEngine,
}

impl PlanAdversary {
    /// Builds the adversary for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        PlanAdversary {
            engine: LinkFaultEngine::new(plan),
        }
    }

    /// The plan driving this adversary.
    pub fn plan(&self) -> &FaultPlan {
        self.engine.plan()
    }
}

impl<M: Clone> Adversary<M> for PlanAdversary {
    fn intercept(&mut self, from: NodeId, to: NodeId, msg: M, now: SimTime) -> Fate<M> {
        match self.engine.decide(from, to, now.as_duration()) {
            LinkDecision::Deliver => Fate::Deliver(msg),
            LinkDecision::Drop => Fate::Drop,
            LinkDecision::Delay(d) => Fate::DeliverDelayed(msg, d),
            LinkDecision::Reorder(d) => Fate::DeliverReordered(msg, d),
            LinkDecision::Duplicate(d) => Fate::DeliverDuplicated(msg, d),
        }
    }

    fn is_crashed(&self, node: NodeId, now: SimTime) -> bool {
        self.engine.node_down(node, now.as_duration())
    }
}

/// Keeps one node off the network until it is flipped to *joined* — the
/// adversary half of a late-join scenario.
///
/// Until the shared flag is set, the node is reported as crashed (the
/// simulator then suppresses its events, including the timers armed by its
/// genesis `on_start`) and every message to or from it is dropped. Once the
/// driver flips the flag — typically right before rebuilding the node via
/// `Simulation::restart_node` so it starts mid-run in state-sync mode — the
/// wrapper becomes transparent and the inner adversary decides everything.
///
/// All other traffic delegates to the wrapped adversary throughout, so a
/// late join composes with any fault plan.
pub struct LateJoinAdversary<M> {
    inner: Box<dyn Adversary<M>>,
    node: NodeId,
    joined: Arc<AtomicBool>,
}

impl<M> LateJoinAdversary<M> {
    /// Wraps `inner`, keeping `node` off the network until the returned
    /// handle (see [`LateJoinAdversary::handle`]) is set to `true`.
    pub fn new(inner: Box<dyn Adversary<M>>, node: NodeId) -> Self {
        LateJoinAdversary {
            inner,
            node,
            joined: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The shared join flag: store `true` to let the node onto the network.
    pub fn handle(&self) -> Arc<AtomicBool> {
        self.joined.clone()
    }

    fn joined(&self) -> bool {
        self.joined.load(Ordering::SeqCst)
    }
}

impl<M> Adversary<M> for LateJoinAdversary<M> {
    fn intercept(&mut self, from: NodeId, to: NodeId, msg: M, now: SimTime) -> Fate<M> {
        if !self.joined() && (from == self.node || to == self.node) {
            return Fate::Drop;
        }
        self.inner.intercept(from, to, msg, now)
    }

    fn is_crashed(&self, node: NodeId, now: SimTime) -> bool {
        if !self.joined() && node == self.node {
            return true;
        }
        self.inner.is_crashed(node, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::{FaultWindow, LinkSelector};

    #[test]
    fn plan_adversary_maps_decisions_to_fates() {
        let plan = FaultPlan::named("map")
            .delay(
                LinkSelector::All,
                FaultWindow::ALWAYS,
                Duration::from_millis(3),
                Duration::from_millis(3),
            )
            .crash_recover(
                NodeId(2),
                Duration::from_millis(10),
                Duration::from_millis(20),
            );
        let mut adv = PlanAdversary::new(plan);
        assert_eq!(
            adv.intercept(NodeId(0), NodeId(1), 7u32, SimTime::ZERO),
            Fate::DeliverDelayed(7, Duration::from_millis(3))
        );
        // Messages to a down node drop; the node reports as crashed only
        // inside its downtime window.
        assert_eq!(
            adv.intercept(NodeId(0), NodeId(2), 7u32, SimTime::from_millis(15)),
            Fate::Drop
        );
        assert!(Adversary::<u32>::is_crashed(
            &adv,
            NodeId(2),
            SimTime::from_millis(15)
        ));
        assert!(!Adversary::<u32>::is_crashed(
            &adv,
            NodeId(2),
            SimTime::from_millis(25)
        ));
    }

    #[test]
    fn pass_through_delivers_everything() {
        let mut a = PassThrough;
        assert_eq!(
            a.intercept(NodeId(0), NodeId(1), 42u32, SimTime::ZERO),
            Fate::Deliver(42)
        );
        assert!(!Adversary::<u32>::is_crashed(&a, NodeId(0), SimTime::ZERO));
    }

    #[test]
    fn crash_schedule_drops_after_crash_time() {
        let plan = FaultPlan::named("crash").crash(NodeId(2), Duration::from_secs(5));
        let mut a = PlanAdversary::new(plan);
        // Before the crash everything flows.
        assert_eq!(
            a.intercept(NodeId(2), NodeId(0), 1u32, SimTime::from_secs(4)),
            Fate::Deliver(1)
        );
        // After the crash, messages from and to the crashed node are dropped.
        assert_eq!(
            a.intercept(NodeId(2), NodeId(0), 1u32, SimTime::from_secs(5)),
            Fate::Drop
        );
        assert_eq!(
            a.intercept(NodeId(0), NodeId(2), 1u32, SimTime::from_secs(6)),
            Fate::Drop
        );
        assert!(Adversary::<u32>::is_crashed(
            &a,
            NodeId(2),
            SimTime::from_secs(5)
        ));
        assert!(!Adversary::<u32>::is_crashed(
            &a,
            NodeId(2),
            SimTime::from_secs(4)
        ));
    }

    #[test]
    fn late_join_gates_one_node_until_flipped() {
        let inner =
            PlanAdversary::new(FaultPlan::named("crash").crash(NodeId(1), Duration::from_secs(5)));
        let mut a = LateJoinAdversary::new(Box::new(inner), NodeId(3));
        // Before the join: node 3 is off the network in both directions and
        // reports as crashed; everyone else delegates to the inner adversary.
        assert_eq!(
            a.intercept(NodeId(3), NodeId(0), 1u32, SimTime::ZERO),
            Fate::Drop
        );
        assert_eq!(
            a.intercept(NodeId(0), NodeId(3), 1u32, SimTime::ZERO),
            Fate::Drop
        );
        assert!(a.is_crashed(NodeId(3), SimTime::ZERO));
        assert_eq!(
            a.intercept(NodeId(0), NodeId(1), 1u32, SimTime::ZERO),
            Fate::Deliver(1)
        );
        // After the flip the wrapper is transparent, inner faults included.
        a.handle().store(true, Ordering::SeqCst);
        assert_eq!(
            a.intercept(NodeId(3), NodeId(0), 1u32, SimTime::ZERO),
            Fate::Deliver(1)
        );
        assert!(!a.is_crashed(NodeId(3), SimTime::ZERO));
        assert!(a.is_crashed(NodeId(1), SimTime::from_secs(6)));
        assert_eq!(
            a.intercept(NodeId(1), NodeId(0), 1u32, SimTime::from_secs(6)),
            Fate::Drop
        );
    }
}
