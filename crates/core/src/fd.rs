//! The benign failure detector of §6.1.1.
//!
//! Without it, a crashed proposer forces every node to wait out the full
//! (ever-growing) WRB timeout each time the round-robin reaches it. The
//! detector keeps a *suspected list* of at most `f` nodes that the local node
//! has waited for the longest (and beyond a threshold); when a suspected node
//! is the round's proposer, the node votes against delivery immediately
//! instead of waiting.
//!
//! Two invalidation rules preserve liveness and non-triviality:
//! * the list is cleared whenever the proposer-skip rule of Algorithm 2
//!   (lines b1–b3) skips a node that is among the last `f` proposers — this
//!   guarantees some correct, unsuspected node gets to propose; and
//! * the list is cleared when Byzantine activity is detected, so that no more
//!   than `f` nodes are ever treated as faulty at once.

use fireledger_types::NodeId;
use std::collections::HashMap;
use std::time::Duration;

/// A per-worker benign failure detector.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    /// Maximal number of nodes that may be suspected simultaneously (`f`).
    capacity: usize,
    /// A node is suspected once its accumulated waiting time exceeds this.
    threshold: Duration,
    /// Accumulated time spent waiting on each node.
    waited: HashMap<NodeId, Duration>,
    suspected: Vec<NodeId>,
}

impl FailureDetector {
    /// Creates a detector that suspects at most `capacity` (= f) nodes, each
    /// after `threshold` of accumulated waiting.
    pub fn new(capacity: usize, threshold: Duration) -> Self {
        FailureDetector {
            capacity,
            threshold,
            waited: HashMap::new(),
            suspected: Vec::new(),
        }
    }

    /// Whether `node` is currently suspected.
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.suspected.contains(&node)
    }

    /// The current suspected list.
    pub fn suspected(&self) -> &[NodeId] {
        &self.suspected
    }

    /// Records that the local node waited `duration` for `node` (a timed-out
    /// WRB delivery with `node` as the proposer).
    pub fn record_wait(&mut self, node: NodeId, duration: Duration) {
        let total = self.waited.entry(node).or_insert(Duration::ZERO);
        *total += duration;
        if *total >= self.threshold
            && !self.suspected.contains(&node)
            && self.suspected.len() < self.capacity
        {
            self.suspected.push(node);
        }
    }

    /// Records a successful delivery from `node`: it is clearly alive, so its
    /// accumulated wait is cleared and it is removed from the suspected list.
    pub fn record_alive(&mut self, node: NodeId) {
        self.waited.remove(&node);
        self.suspected.retain(|s| *s != node);
    }

    /// Invalidates the whole suspected list (proposer-skip interaction or
    /// detected Byzantine activity, §6.1.1).
    pub fn invalidate(&mut self) {
        self.waited.clear();
        self.suspected.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd() -> FailureDetector {
        FailureDetector::new(2, Duration::from_millis(100))
    }

    #[test]
    fn suspicion_requires_accumulated_threshold() {
        let mut d = fd();
        d.record_wait(NodeId(3), Duration::from_millis(60));
        assert!(!d.is_suspected(NodeId(3)));
        d.record_wait(NodeId(3), Duration::from_millis(60));
        assert!(d.is_suspected(NodeId(3)));
    }

    #[test]
    fn at_most_capacity_nodes_are_suspected() {
        let mut d = fd();
        for i in 0..4u32 {
            d.record_wait(NodeId(i), Duration::from_millis(500));
        }
        assert_eq!(d.suspected().len(), 2);
        assert!(d.is_suspected(NodeId(0)));
        assert!(d.is_suspected(NodeId(1)));
        assert!(!d.is_suspected(NodeId(2)));
    }

    #[test]
    fn alive_nodes_are_unsuspected() {
        let mut d = fd();
        d.record_wait(NodeId(1), Duration::from_millis(200));
        assert!(d.is_suspected(NodeId(1)));
        d.record_alive(NodeId(1));
        assert!(!d.is_suspected(NodeId(1)));
        // The accumulated wait was cleared too.
        d.record_wait(NodeId(1), Duration::from_millis(60));
        assert!(!d.is_suspected(NodeId(1)));
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut d = fd();
        d.record_wait(NodeId(0), Duration::from_millis(500));
        d.record_wait(NodeId(1), Duration::from_millis(500));
        d.invalidate();
        assert!(d.suspected().is_empty());
        d.record_wait(NodeId(0), Duration::from_millis(50));
        assert!(!d.is_suspected(NodeId(0)));
    }
}
