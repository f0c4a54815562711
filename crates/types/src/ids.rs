//! Identifier newtypes: nodes, FLO workers and protocol rounds.
//!
//! All identifiers are small, `Copy`, and totally ordered so they can be used
//! as map keys and sorted deterministically — determinism matters because the
//! discrete-event simulator must produce identical executions for identical
//! seeds.

use std::fmt;

/// Identity of a replica (a "node" in the paper's terminology).
///
/// Nodes are numbered `0..n` inside a cluster. The round-robin proposer
/// rotation of FireLedger (Algorithm 2, lines b1–b3) as well as the leader
/// rotation of PBFT and HotStuff are all expressed in terms of the node index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node index as a `usize`, convenient for indexing vectors.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the node that follows `self` in the round-robin order of a
    /// cluster of `n` nodes.
    #[inline]
    pub fn next(self, n: usize) -> NodeId {
        NodeId(((self.0 as usize + 1) % n) as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

/// Identity of a FLO worker (§6.2 of the paper).
///
/// A FLO node runs `ω` independent FireLedger instances, one per worker.
/// Worker `w` of node `i` only ever exchanges messages with worker `w` of the
/// other nodes; deliveries from different workers are merged in round-robin
/// order by the FLO client manager.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// Returns the worker index as a `usize`.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A FireLedger protocol round.
///
/// One block is (tentatively) decided per round in the optimistic case. Rounds
/// are also used as sequence numbers for the recovery procedure and as the
/// per-instance tag of OBBC invocations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Round(pub u64);

impl Round {
    /// The first round of the protocol.
    pub const ZERO: Round = Round(0);

    /// Returns the next round.
    #[inline]
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Returns the previous round, saturating at zero.
    #[inline]
    pub fn prev(self) -> Round {
        Round(self.0.saturating_sub(1))
    }

    /// Returns `self + k`.
    #[inline]
    pub fn plus(self, k: u64) -> Round {
        Round(self.0 + k)
    }

    /// Returns `self - k`, saturating at zero.
    #[inline]
    pub fn minus(self, k: u64) -> Round {
        Round(self.0.saturating_sub(k))
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for Round {
    fn from(v: u64) -> Self {
        Round(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_next_wraps_around() {
        assert_eq!(NodeId(0).next(4), NodeId(1));
        assert_eq!(NodeId(3).next(4), NodeId(0));
        assert_eq!(NodeId(6).next(7), NodeId(0));
    }

    #[test]
    fn node_ordering_is_by_index() {
        let mut v = vec![NodeId(3), NodeId(1), NodeId(2), NodeId(0)];
        v.sort();
        assert_eq!(v, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn round_arithmetic() {
        let r = Round(10);
        assert_eq!(r.next(), Round(11));
        assert_eq!(r.prev(), Round(9));
        assert_eq!(r.plus(5), Round(15));
        assert_eq!(r.minus(20), Round(0));
        assert_eq!(Round::ZERO.prev(), Round(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(2).to_string(), "p2");
        assert_eq!(WorkerId(4).to_string(), "w4");
        assert_eq!(Round(17).to_string(), "r17");
    }

    #[test]
    fn conversions() {
        assert_eq!(NodeId::from(3u32), NodeId(3));
        assert_eq!(NodeId::from(3usize), NodeId(3));
        assert_eq!(Round::from(9u64), Round(9));
        assert_eq!(NodeId(7).as_usize(), 7);
        assert_eq!(WorkerId(2).as_usize(), 2);
    }
}
