//! The Optimistic Binary Byzantine Consensus of one worker attempt
//! (Algorithm 4 / Appendix A), kept as one [`Attempt`] record per
//! `(round, proposer)`. On the fast path `n − f` single-bit votes that are
//! all "deliver" decide "deliver". A mixed quorum makes every node submit
//! its vote, with the proposer's signed header as evidence if it voted
//! "deliver", to the worker's BFT layer (§6.1.2); the first `n − f` votes it
//! orders decide "deliver" iff one of them carries evidence. The worker owns
//! the submission, the evidence check and the WAL-persisted votes.

use fireledger_types::NodeId;

/// What an attempt's votes call for next (see [`Attempt::step`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Nothing to do until more votes arrive.
    Wait,
    /// The fast-path quorum is mixed: submit our fallback vote.
    Fallback,
    /// The attempt is decided: `true` delivers the block, `false` skips it.
    Decide(bool),
}

/// The vote state of one `(round, proposer)` attempt.
pub(crate) struct Attempt {
    /// Fast-path votes indexed by node id.
    votes: Vec<Option<bool>>,
    /// Number of `Some` entries in `votes`.
    cast: usize,
    /// Number of `Some(true)` entries in `votes`.
    delivers: usize,
    /// Ordered fallback votes, one per member: `(voter, carries evidence)`.
    fallback: Vec<(NodeId, bool)>,
    /// Our fallback vote has been submitted.
    submitted: bool,
    /// The attempt is decided.
    resolved: bool,
}

impl Attempt {
    /// An attempt of an `n`-node cluster with no votes yet.
    pub(crate) fn new(n: usize) -> Self {
        Attempt {
            votes: vec![None; n],
            cast: 0,
            delivers: 0,
            fallback: Vec::new(),
            submitted: false,
            resolved: false,
        }
    }

    /// Records a peer's fast-path vote. The first vote a node sends counts;
    /// a vote from outside the cluster is dropped.
    pub(crate) fn record_vote(&mut self, voter: NodeId, vote: bool) {
        if let Some(slot @ None) = self.votes.get_mut(voter.0 as usize) {
            *slot = Some(vote);
            self.cast += 1;
            self.delivers += usize::from(vote);
        }
    }

    /// Records our own fast-path vote, replacing any earlier one.
    pub(crate) fn record_own_vote(&mut self, me: NodeId, vote: bool) {
        if let Some(slot) = self.votes.get_mut(me.0 as usize) {
            match slot.replace(vote) {
                Some(old) => self.delivers -= usize::from(old),
                None => self.cast += 1,
            }
            self.delivers += usize::from(vote);
        }
    }

    /// `node`'s recorded fast-path vote.
    pub(crate) fn vote_of(&self, node: NodeId) -> Option<bool> {
        self.votes.get(node.0 as usize).copied().flatten()
    }

    /// Appends a fallback vote in the consensus layer's delivery order. A
    /// repeat from the same voter and a vote from outside the cluster are
    /// dropped.
    pub(crate) fn record_fallback(&mut self, voter: NodeId, has_evidence: bool) {
        if (voter.0 as usize) < self.votes.len() && self.fallback.iter().all(|(v, _)| *v != voter) {
            self.fallback.push((voter, has_evidence));
        }
    }

    /// Marks our fallback vote submitted; `false` if it already was.
    pub(crate) fn mark_submitted(&mut self) -> bool {
        !std::mem::replace(&mut self.submitted, true)
    }

    /// Whether the attempt is decided.
    pub(crate) fn is_resolved(&self) -> bool {
        self.resolved
    }

    /// The resolution rule. `voted` says whether our own vote is in: the
    /// fast path is only taken once it is. A `Decide` is returned once; the
    /// attempt is resolved from then on.
    pub(crate) fn step(&mut self, quorum: usize, voted: bool) -> Step {
        if self.resolved {
            return Step::Wait;
        }
        if voted && self.cast >= quorum {
            if self.delivers == self.cast {
                self.resolved = true;
                return Step::Decide(true);
            }
            if !self.submitted {
                return Step::Fallback;
            }
        }
        if self.fallback.len() < quorum {
            return Step::Wait;
        }
        self.resolved = true;
        Step::Decide(
            self.fallback[..quorum]
                .iter()
                .any(|(_, evidence)| *evidence),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 4;
    const QUORUM: usize = 3;

    fn attempt_with(votes: &[(u32, bool)]) -> Attempt {
        let mut a = Attempt::new(N);
        for &(node, vote) in votes {
            a.record_vote(NodeId(node), vote);
        }
        a
    }

    #[test]
    fn unanimous_quorum_decides_deliver_on_the_fast_path() {
        let mut a = attempt_with(&[(0, true), (2, true)]);
        a.record_own_vote(NodeId(1), true);
        assert_eq!(a.step(QUORUM, true), Step::Decide(true));
        assert!(a.is_resolved());
    }

    #[test]
    fn fast_path_waits_for_our_own_vote_and_a_quorum() {
        let mut a = attempt_with(&[(0, true), (2, true), (3, true)]);
        assert_eq!(a.step(QUORUM, false), Step::Wait);
        let mut b = attempt_with(&[(0, true)]);
        b.record_own_vote(NodeId(1), true);
        assert_eq!(b.step(QUORUM, true), Step::Wait);
    }

    #[test]
    fn a_resolved_attempt_ignores_later_votes() {
        let mut a = attempt_with(&[(0, true), (2, true)]);
        a.record_own_vote(NodeId(1), true);
        assert_eq!(a.step(QUORUM, true), Step::Decide(true));
        a.record_vote(NodeId(3), false);
        for voter in 0..3 {
            a.record_fallback(NodeId(voter), false);
        }
        assert_eq!(a.step(QUORUM, true), Step::Wait);
    }

    #[test]
    fn a_peers_first_vote_counts_and_a_duplicate_counts_once() {
        let mut a = attempt_with(&[(0, true), (0, false), (0, true)]);
        assert_eq!(a.vote_of(NodeId(0)), Some(true));
        a.record_own_vote(NodeId(1), true);
        // Two distinct voters are below the quorum of three.
        assert_eq!(a.step(QUORUM, true), Step::Wait);
    }

    #[test]
    fn our_own_vote_overwrites() {
        let mut a = attempt_with(&[(0, true), (2, true)]);
        a.record_own_vote(NodeId(1), false);
        a.record_own_vote(NodeId(1), true);
        assert_eq!(a.vote_of(NodeId(1)), Some(true));
        assert_eq!(a.step(QUORUM, true), Step::Decide(true));
    }

    #[test]
    fn votes_from_outside_the_cluster_are_dropped() {
        let mut a = Attempt::new(N);
        a.record_vote(NodeId(4), true);
        a.record_vote(NodeId(u32::MAX), true);
        a.record_own_vote(NodeId(7), true);
        assert_eq!(a.vote_of(NodeId(4)), None);
        for voter in 4..7 {
            a.record_fallback(NodeId(voter), false);
        }
        assert_eq!(a.step(QUORUM, true), Step::Wait);
    }

    #[test]
    fn mixed_votes_submit_the_fallback_vote_once() {
        let mut a = attempt_with(&[(0, true), (3, false)]);
        a.record_own_vote(NodeId(1), true);
        assert_eq!(a.step(QUORUM, true), Step::Fallback);
        assert!(a.mark_submitted());
        assert!(!a.mark_submitted());
        assert_eq!(a.step(QUORUM, true), Step::Wait);
    }

    #[test]
    fn mixed_votes_trigger_evidence_exchange_then_fallback() {
        // The evidence travels in the ordered fallback votes themselves.
        let mut a = attempt_with(&[(1, false), (2, true)]);
        a.record_own_vote(NodeId(0), true);
        assert_eq!(a.step(QUORUM, true), Step::Fallback);
        assert!(a.mark_submitted());
        assert!(!a.is_resolved());
        a.record_fallback(NodeId(1), false);
        assert_eq!(a.step(QUORUM, true), Step::Wait);
        a.record_fallback(NodeId(2), true);
        assert_eq!(a.step(QUORUM, true), Step::Wait);
        a.record_fallback(NodeId(0), true);
        assert_eq!(a.step(QUORUM, true), Step::Decide(true));
    }

    #[test]
    fn all_zero_votes_fall_back_with_zero_proposal() {
        // A quorum of "skip" votes falls back too; nothing decides "skip"
        // without the ordered fallback votes.
        let mut a = attempt_with(&[(0, false), (1, false)]);
        a.record_own_vote(NodeId(3), false);
        assert_eq!(a.step(QUORUM, true), Step::Fallback);
        assert!(a.mark_submitted());
        // Our fallback vote is "skip", so it carries no evidence.
        assert_eq!(a.vote_of(NodeId(3)), Some(false));
        for voter in [0, 1, 3] {
            a.record_fallback(NodeId(voter), false);
        }
        assert_eq!(a.step(QUORUM, true), Step::Decide(false));
    }

    #[test]
    fn fallback_decides_from_evidence_among_the_first_quorum_of_ordered_votes() {
        // Evidence only past the first n − f ordered votes: skip.
        let mut a = Attempt::new(N);
        for (voter, evidence) in [(3, false), (2, false), (2, true), (0, false), (1, true)] {
            a.record_fallback(NodeId(voter), evidence);
        }
        assert_eq!(a.step(QUORUM, false), Step::Decide(false));
        // One piece of evidence among them: deliver.
        let mut b = Attempt::new(N);
        for (voter, evidence) in [(3, false), (0, true)] {
            b.record_fallback(NodeId(voter), evidence);
        }
        assert_eq!(b.step(QUORUM, false), Step::Wait);
        b.record_fallback(NodeId(2), false);
        assert_eq!(b.step(QUORUM, false), Step::Decide(true));
        assert_eq!(b.step(QUORUM, false), Step::Wait);
    }

    #[test]
    fn a_resolved_attempt_still_submits_its_fallback_vote_once() {
        // OB26–OB27: we decided on the fast path, others fell back; the
        // worker submits our vote when the first fallback vote arrives.
        let mut a = attempt_with(&[(0, true), (2, true)]);
        a.record_own_vote(NodeId(1), true);
        assert_eq!(a.step(QUORUM, true), Step::Decide(true));
        a.record_fallback(NodeId(3), false);
        assert!(a.is_resolved());
        assert!(a.mark_submitted());
        assert_eq!(a.vote_of(NodeId(1)), Some(true));
        assert!(!a.mark_submitted());
    }
}
