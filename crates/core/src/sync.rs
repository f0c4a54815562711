//! The state-sync [`Synchronizer`]: a per-worker state machine that closes
//! the gap between a lagging node and the cluster's definite prefix by
//! range-fetching blocks (late join, restart-from-disk, healed partition).
//!
//! ```text
//!            begin()                 f+1 tips / timer
//!   Idle ────────────▶ ProbingTips ──────────────────▶ FetchingHeaders
//!                           ▲                               │ verified
//!                           │ no eligible peer              ▼
//!                           └──────────────────────── FetchingBodies
//!                                                           │ spliced to target
//!                                                           ▼
//!                                                       CaughtUp
//! ```
//!
//! The synchronizer owns the *protocol* side of catch-up: nonce bookkeeping,
//! peer selection, per-request timeouts, quarantine of peers that lied or
//! stalled, and range arithmetic. It deliberately owns **no** chain or
//! crypto state — the hosting [`crate::worker::Worker`] validates every
//! header segment against its own tip (hash chain, signatures, the
//! f+1-distinct-proposers rule) before any body is requested, and checks
//! every body's merkle root against its verified header before splicing.
//! That split keeps the machine trivially unit-testable and keeps the
//! security checks next to the state they protect.
//!
//! Every request carries a fresh nonce; replies are gated on
//! `(phase, nonce, peer, range)`, so duplicated, reordered or unsolicited
//! responses are ignored rather than corrupting the fetch. A reply that is
//! *addressed correctly but malformed* (empty, oversized) is treated exactly
//! like a verification failure: the peer is quarantined and the fetch retries
//! against an alternate peer, re-probing the cluster when no candidate is
//! left.

use fireledger_types::{
    NodeId, Outbox, Round, SignedHeader, SyncMsg, TimerId, Transaction, MAX_SYNC_BODIES,
    MAX_SYNC_HEADERS,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Timer kind used for per-request sync timeouts (disjoint from the worker's
/// round timer and the embedded PBFT timer kinds).
pub const TIMER_SYNC: u8 = 0x5C;

/// Longest quarantine, in probe cycles. Strikes escalate the sentence one
/// cycle at a time up to this cap, so even a repeat offender is re-admitted
/// eventually — a transiently slow peer must not be excluded forever.
const QUARANTINE_TTL_CAP: u64 = 4;

/// Phase of the synchronizer state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPhase {
    /// Not syncing; never synced.
    Idle,
    /// Broadcast a [`SyncMsg::TipProbe`], collecting peers' definite tips.
    ProbingTips,
    /// A [`SyncMsg::GetHeaders`] range request is in flight.
    FetchingHeaders,
    /// Headers verified; a [`SyncMsg::GetBlocks`] request is in flight.
    FetchingBodies,
    /// The last sync cycle completed (the host resumed normal operation).
    CaughtUp,
}

/// What the host must do after feeding an event into the synchronizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncStep {
    /// Nothing — the machine progressed (or ignored the event) on its own.
    Continue,
    /// The sync cycle is over: resume normal consensus from the local tip.
    CaughtUp,
}

/// Strike record for a misbehaving peer: how often it failed us and the
/// probe cycle at which it is forgiven.
#[derive(Clone, Copy, Debug)]
struct Quarantine {
    strikes: u64,
    released_at_cycle: u64,
}

/// Gate verdict for an inbound reply.
#[derive(Debug, PartialEq)]
pub enum ReplyGate<T> {
    /// Stale, duplicated or unsolicited — drop silently.
    Ignore,
    /// Correctly addressed but malformed — quarantine the peer and retry.
    Bad,
    /// A well-formed candidate the host must now verify.
    Candidate(T),
}

/// The catch-up state machine. See the module docs for the protocol.
pub struct Synchronizer {
    me: NodeId,
    /// Cluster size (peers = n − 1).
    n: usize,
    phase: SyncPhase,
    timeout: Duration,
    /// Nonce of the in-flight request; every request consumes a fresh one,
    /// so replies (and timers) for superseded requests are self-identifying.
    req: u64,
    next_req: u64,
    /// Definite tips reported by peers during the current probe. BTreeMap so
    /// peer selection is deterministic under the simulator.
    tips: BTreeMap<NodeId, Round>,
    /// Peers that lied, stalled or replied malformed, with their strike
    /// record. Entries expire after a strike-scaled number of probe cycles
    /// (see [`QUARANTINE_TTL_CAP`]) instead of lasting the whole sync.
    quarantined: BTreeMap<NodeId, Quarantine>,
    /// Monotone probe-cycle counter — the clock quarantine TTLs tick on.
    probe_cycle: u64,
    /// The peer currently serving our range requests.
    peer: Option<NodeId>,
    /// Fetch target: one past the last round to fetch (the best definite tip
    /// reported during the probe).
    target: Round,
    /// Next round to fetch / splice (the front of `headers` is this round).
    from: Round,
    /// Verified headers whose bodies are still being downloaded.
    headers: VecDeque<SignedHeader>,
    header_batch: usize,
    body_batch: usize,
    rounds_fetched: u64,
}

impl Synchronizer {
    /// Creates an idle synchronizer for node `me` in a cluster of `n` nodes.
    pub fn new(me: NodeId, n: usize, timeout: Duration) -> Self {
        Synchronizer {
            me,
            n,
            phase: SyncPhase::Idle,
            timeout,
            req: 0,
            next_req: 0,
            tips: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            probe_cycle: 0,
            peer: None,
            target: Round(0),
            from: Round(0),
            headers: VecDeque::new(),
            header_batch: MAX_SYNC_HEADERS,
            body_batch: MAX_SYNC_BODIES,
            rounds_fetched: 0,
        }
    }

    /// Overrides the per-request batch sizes (clamped to the wire caps;
    /// used by tests to exercise arbitrary range-split schedules).
    pub fn with_batches(mut self, headers: usize, bodies: usize) -> Self {
        self.set_batches(headers, bodies);
        self
    }

    /// In-place variant of [`Synchronizer::with_batches`].
    pub fn set_batches(&mut self, headers: usize, bodies: usize) {
        self.header_batch = headers.clamp(1, MAX_SYNC_HEADERS);
        self.body_batch = bodies.clamp(1, MAX_SYNC_BODIES);
    }

    /// Current phase.
    pub fn phase(&self) -> SyncPhase {
        self.phase
    }

    /// True while a sync cycle is in progress (normal consensus is paused).
    pub fn is_active(&self) -> bool {
        matches!(
            self.phase,
            SyncPhase::ProbingTips | SyncPhase::FetchingHeaders | SyncPhase::FetchingBodies
        )
    }

    /// Total rounds fetched and spliced across all sync cycles.
    pub fn rounds_fetched(&self) -> u64 {
        self.rounds_fetched
    }

    /// Whether `p` is currently serving a quarantine sentence (struck and
    /// not yet past its release cycle).
    pub fn is_quarantined(&self, p: NodeId) -> bool {
        self.quarantined
            .get(&p)
            .is_some_and(|q| q.released_at_cycle > self.probe_cycle)
    }

    fn fresh_req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn arm_timer(&self, out: &mut Outbox<SyncMsg>) {
        out.set_timer(TimerId::compose(TIMER_SYNC, self.req), self.timeout);
    }

    /// Starts a sync cycle: broadcast a tip probe and wait for replies.
    /// No-op while a cycle is already active.
    pub fn begin(&mut self, out: &mut Outbox<SyncMsg>) {
        if self.is_active() {
            return;
        }
        self.quarantined.clear();
        self.reprobe(out);
    }

    fn reprobe(&mut self, out: &mut Outbox<SyncMsg>) -> SyncStep {
        self.phase = SyncPhase::ProbingTips;
        self.tips.clear();
        self.headers.clear();
        self.peer = None;
        // One tick of the quarantine clock: peers whose sentence has run
        // out become eligible reporters again (their strike record stays,
        // so a repeat offender earns a longer sentence next time).
        self.probe_cycle += 1;
        self.req = self.fresh_req();
        out.broadcast(SyncMsg::TipProbe { req: self.req });
        self.arm_timer(out);
        SyncStep::Continue
    }

    /// Records a peer's definite tip. Once every peer answered (or, via
    /// [`Synchronizer::on_timer`], when the probe times out with at least one
    /// answer) the machine picks a target and a serving peer.
    pub fn on_tip_reply(
        &mut self,
        from: NodeId,
        req: u64,
        definite: Round,
        local_next: Round,
        out: &mut Outbox<SyncMsg>,
    ) -> SyncStep {
        if self.phase != SyncPhase::ProbingTips || req != self.req || from == self.me {
            return SyncStep::Continue;
        }
        self.tips.insert(from, definite);
        if self.tips.len() >= self.n.saturating_sub(1) {
            return self.decide_target(local_next, out);
        }
        SyncStep::Continue
    }

    /// Picks the fetch target (the best reported definite tip) and the
    /// serving peer (the best-tipped non-quarantined reporter; ties go to the
    /// lowest node id for determinism).
    fn decide_target(&mut self, local_next: Round, out: &mut Outbox<SyncMsg>) -> SyncStep {
        let best = self
            .tips
            .iter()
            .filter(|(p, _)| !self.is_quarantined(**p))
            .max_by_key(|(p, r)| (r.0, std::cmp::Reverse(p.0)))
            .map(|(p, r)| (*p, *r));
        let Some((peer, target)) = best else {
            // Every reporter is quarantined: forgive and start over rather
            // than deadlock (a peer that lied about headers may still be the
            // only one reachable).
            self.quarantined.clear();
            return self.reprobe(out);
        };
        if target <= local_next {
            return self.finish(out);
        }
        self.target = target;
        self.from = local_next;
        self.peer = Some(peer);
        self.request_headers(out);
        SyncStep::Continue
    }

    fn request_headers(&mut self, out: &mut Outbox<SyncMsg>) {
        self.phase = SyncPhase::FetchingHeaders;
        let to = Round(self.target.0.min(self.from.0 + self.header_batch as u64));
        self.req = self.fresh_req();
        out.send(
            self.peer.expect("fetching requires a peer"),
            SyncMsg::GetHeaders {
                req: self.req,
                from: self.from,
                to,
            },
        );
        self.arm_timer(out);
    }

    fn request_bodies(&mut self, out: &mut Outbox<SyncMsg>) {
        self.phase = SyncPhase::FetchingBodies;
        let span = self.headers.len().min(self.body_batch) as u64;
        self.req = self.fresh_req();
        out.send(
            self.peer.expect("fetching requires a peer"),
            SyncMsg::GetBlocks {
                req: self.req,
                from: self.from,
                to: Round(self.from.0 + span),
            },
        );
        self.arm_timer(out);
    }

    fn finish(&mut self, out: &mut Outbox<SyncMsg>) -> SyncStep {
        out.cancel_timer(TimerId::compose(TIMER_SYNC, self.req));
        self.phase = SyncPhase::CaughtUp;
        self.peer = None;
        self.headers.clear();
        self.tips.clear();
        SyncStep::CaughtUp
    }

    /// Gates a [`SyncMsg::HeadersReply`]. A [`ReplyGate::Candidate`] segment
    /// must be chain-verified by the host, which then calls either
    /// [`Synchronizer::headers_verified`] or [`Synchronizer::peer_failed`].
    pub fn on_headers_reply(
        &mut self,
        from: NodeId,
        req: u64,
        reply_from: Round,
        headers: Vec<SignedHeader>,
    ) -> ReplyGate<Vec<SignedHeader>> {
        if self.phase != SyncPhase::FetchingHeaders || req != self.req || Some(from) != self.peer {
            return ReplyGate::Ignore;
        }
        let span = (self.target.0 - self.from.0).min(self.header_batch as u64);
        if reply_from != self.from || headers.is_empty() || headers.len() as u64 > span {
            return ReplyGate::Bad;
        }
        ReplyGate::Candidate(headers)
    }

    /// The host verified the candidate header segment against its chain:
    /// store it and request the first batch of bodies.
    pub fn headers_verified(
        &mut self,
        headers: Vec<SignedHeader>,
        out: &mut Outbox<SyncMsg>,
    ) -> SyncStep {
        self.headers = headers.into();
        self.request_bodies(out);
        SyncStep::Continue
    }

    /// Gates a [`SyncMsg::BlocksReply`]. A [`ReplyGate::Candidate`] pairs
    /// each body with its already-verified header; the host checks the merkle
    /// roots, splices, and calls [`Synchronizer::spliced`] — or
    /// [`Synchronizer::peer_failed`] on a mismatch.
    pub fn on_blocks_reply(
        &mut self,
        from: NodeId,
        req: u64,
        reply_from: Round,
        bodies: Vec<Vec<Transaction>>,
    ) -> ReplyGate<Vec<(SignedHeader, Vec<Transaction>)>> {
        if self.phase != SyncPhase::FetchingBodies || req != self.req || Some(from) != self.peer {
            return ReplyGate::Ignore;
        }
        let span = self.headers.len().min(self.body_batch);
        if reply_from != self.from || bodies.is_empty() || bodies.len() > span {
            return ReplyGate::Bad;
        }
        let pairs = self
            .headers
            .iter()
            .take(bodies.len())
            .cloned()
            .zip(bodies)
            .collect();
        ReplyGate::Candidate(pairs)
    }

    /// The host spliced `count` fetched blocks onto its chain: advance the
    /// cursor and issue the next request (more bodies of this segment, the
    /// next header segment, or done).
    pub fn spliced(&mut self, count: usize, out: &mut Outbox<SyncMsg>) -> SyncStep {
        self.headers.drain(..count.min(self.headers.len()));
        self.from = Round(self.from.0 + count as u64);
        self.rounds_fetched += count as u64;
        if !self.headers.is_empty() {
            self.request_bodies(out);
            SyncStep::Continue
        } else if self.from < self.target {
            self.request_headers(out);
            SyncStep::Continue
        } else {
            self.finish(out)
        }
    }

    /// The current peer failed us — timed out, replied malformed, or served a
    /// segment that did not verify. Quarantine it and retry against the best
    /// alternate reporter; re-probe the cluster when none is left.
    pub fn peer_failed(&mut self, local_next: Round, out: &mut Outbox<SyncMsg>) -> SyncStep {
        if !self.is_active() {
            return SyncStep::Continue;
        }
        if let Some(p) = self.peer.take() {
            // Strike-scaled sentence: first offence sits out one probe
            // cycle, repeat offenders up to QUARANTINE_TTL_CAP cycles.
            let strikes = self.quarantined.get(&p).map_or(0, |q| q.strikes) + 1;
            self.quarantined.insert(
                p,
                Quarantine {
                    strikes,
                    released_at_cycle: self.probe_cycle + strikes.min(QUARANTINE_TTL_CAP),
                },
            );
        }
        // Any partially fetched segment is abandoned; re-anchor on the chain.
        self.headers.clear();
        self.from = local_next;
        let next = self
            .tips
            .iter()
            .filter(|(p, r)| !self.is_quarantined(**p) && r.0 > self.from.0)
            .max_by_key(|(p, r)| (r.0, std::cmp::Reverse(p.0)))
            .map(|(p, _)| *p);
        match next {
            Some(p) => {
                self.peer = Some(p);
                self.request_headers(out);
                SyncStep::Continue
            }
            None => self.reprobe(out),
        }
    }

    /// Handles a fired `TIMER_SYNC` timer (`seq` is the request nonce the
    /// timer was armed for). Stale timers are ignored.
    pub fn on_timer(&mut self, seq: u64, local_next: Round, out: &mut Outbox<SyncMsg>) -> SyncStep {
        if !self.is_active() || seq != self.req {
            return SyncStep::Continue;
        }
        match self.phase {
            SyncPhase::ProbingTips => {
                if self.tips.is_empty() {
                    // Nobody answered: keep probing.
                    self.reprobe(out)
                } else {
                    // Proceed with the tips we have (some peers may be down).
                    self.decide_target(local_next, out)
                }
            }
            SyncPhase::FetchingHeaders | SyncPhase::FetchingBodies => {
                self.peer_failed(local_next, out)
            }
            SyncPhase::Idle | SyncPhase::CaughtUp => SyncStep::Continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireledger_types::{Action, BlockHeader, Signature, GENESIS_HASH};

    impl Synchronizer {
        /// Peers currently under quarantine.
        fn quarantined_peers(&self) -> Vec<NodeId> {
            self.quarantined
                .keys()
                .copied()
                .filter(|p| self.is_quarantined(*p))
                .collect()
        }
    }

    fn header(round: u64) -> SignedHeader {
        SignedHeader::new(
            BlockHeader::new(
                Round(round),
                fireledger_types::WorkerId(0),
                NodeId(1),
                GENESIS_HASH,
                GENESIS_HASH,
                0,
                0,
            ),
            Signature::from(vec![0u8; 64]),
        )
    }

    fn sent(out: &mut Outbox<SyncMsg>) -> Vec<(Option<NodeId>, SyncMsg)> {
        out.drain()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((Some(to), msg)),
                Action::Broadcast { msg } => Some((None, msg)),
                _ => None,
            })
            .collect()
    }

    fn sync() -> Synchronizer {
        Synchronizer::new(NodeId(3), 4, Duration::from_millis(50)).with_batches(4, 2)
    }

    #[test]
    fn full_cycle_probe_headers_bodies_caught_up() {
        let mut s = sync();
        let mut out = Outbox::new();
        s.begin(&mut out);
        let msgs = sent(&mut out);
        assert!(matches!(msgs[0], (None, SyncMsg::TipProbe { .. })));
        let req = msgs[0].1.req();

        // Peers 0..=2 report tips; the best (node 1, tip 6) is chosen.
        assert_eq!(
            s.on_tip_reply(NodeId(0), req, Round(5), Round(0), &mut out),
            SyncStep::Continue
        );
        assert_eq!(
            s.on_tip_reply(NodeId(1), req, Round(6), Round(0), &mut out),
            SyncStep::Continue
        );
        assert_eq!(
            s.on_tip_reply(NodeId(2), req, Round(6), Round(0), &mut out),
            SyncStep::Continue
        );
        let msgs = sent(&mut out);
        // Header batch 4 < gap 6: the first request covers [0, 4).
        let (to, SyncMsg::GetHeaders { req, from, to: hi }) = msgs[0].clone() else {
            panic!("expected GetHeaders, got {msgs:?}");
        };
        assert_eq!(to, Some(NodeId(1)), "ties break to the lowest node id");
        assert_eq!((from, hi), (Round(0), Round(4)));

        let gate = s.on_headers_reply(NodeId(1), req, Round(0), (0..4).map(header).collect());
        let ReplyGate::Candidate(hs) = gate else {
            panic!("expected candidate")
        };
        s.headers_verified(hs, &mut out);
        // Body batch 2: bodies come in sub-batches [0,2) then [2,4).
        let msgs = sent(&mut out);
        let (_, SyncMsg::GetBlocks { req, from, to: hi }) = msgs[0].clone() else {
            panic!("expected GetBlocks, got {msgs:?}");
        };
        assert_eq!((from, hi), (Round(0), Round(2)));

        let gate = s.on_blocks_reply(NodeId(1), req, Round(0), vec![vec![], vec![]]);
        let ReplyGate::Candidate(pairs) = gate else {
            panic!("expected candidate")
        };
        assert_eq!(pairs.len(), 2);
        assert_eq!(s.spliced(2, &mut out), SyncStep::Continue);
        let msgs = sent(&mut out);
        let (_, SyncMsg::GetBlocks { req, from, to: hi }) = msgs[0].clone() else {
            panic!("expected GetBlocks, got {msgs:?}");
        };
        assert_eq!((from, hi), (Round(2), Round(4)));
        let ReplyGate::Candidate(_) =
            s.on_blocks_reply(NodeId(1), req, Round(2), vec![vec![], vec![]])
        else {
            panic!("expected candidate")
        };
        assert_eq!(s.spliced(2, &mut out), SyncStep::Continue);

        // Segment [0,4) done; next header segment [4,6) closes the gap.
        let msgs = sent(&mut out);
        let (_, SyncMsg::GetHeaders { req, from, to: hi }) = msgs[0].clone() else {
            panic!("expected GetHeaders, got {msgs:?}");
        };
        assert_eq!((from, hi), (Round(4), Round(6)));
        let ReplyGate::Candidate(hs) =
            s.on_headers_reply(NodeId(1), req, Round(4), (4..6).map(header).collect())
        else {
            panic!("expected candidate")
        };
        s.headers_verified(hs, &mut out);
        let msgs = sent(&mut out);
        let (_, SyncMsg::GetBlocks { req, .. }) = msgs[0].clone() else {
            panic!("expected GetBlocks, got {msgs:?}");
        };
        let ReplyGate::Candidate(_) =
            s.on_blocks_reply(NodeId(1), req, Round(4), vec![vec![], vec![]])
        else {
            panic!("expected candidate")
        };
        assert_eq!(s.spliced(2, &mut out), SyncStep::CaughtUp);
        assert_eq!(s.phase(), SyncPhase::CaughtUp);
        assert_eq!(s.rounds_fetched(), 6);
    }

    #[test]
    fn duplicate_stale_and_unsolicited_replies_are_ignored() {
        let mut s = sync();
        let mut out = Outbox::new();
        s.begin(&mut out);
        let req = sent(&mut out)[0].1.req();
        for p in 0..3 {
            s.on_tip_reply(NodeId(p), req, Round(8), Round(0), &mut out);
        }
        let req = match sent(&mut out)[0].1 {
            SyncMsg::GetHeaders { req, .. } => req,
            ref m => panic!("expected GetHeaders, got {m:?}"),
        };
        // Wrong nonce, wrong peer, wrong phase for bodies: all ignored.
        assert_eq!(
            s.on_headers_reply(NodeId(0), req + 99, Round(0), vec![header(0)]),
            ReplyGate::Ignore
        );
        assert_eq!(
            s.on_headers_reply(NodeId(2), req, Round(0), vec![header(0)]),
            ReplyGate::Ignore,
            "reply from a peer we did not ask"
        );
        assert_eq!(
            s.on_blocks_reply(NodeId(0), req, Round(0), vec![vec![]]),
            ReplyGate::Ignore,
            "bodies while fetching headers"
        );
        // Malformed replies from the right peer are Bad, not Ignore.
        assert_eq!(
            s.on_headers_reply(NodeId(0), req, Round(0), vec![]),
            ReplyGate::Bad
        );
        assert_eq!(
            s.on_headers_reply(NodeId(0), req, Round(3), vec![header(3)]),
            ReplyGate::Bad,
            "reply for a range we did not ask"
        );
        assert_eq!(
            s.on_headers_reply(NodeId(0), req, Round(0), (0..5).map(header).collect()),
            ReplyGate::Bad,
            "oversized reply"
        );
    }

    #[test]
    fn timeout_quarantines_the_peer_and_retries_an_alternate() {
        let mut s = sync();
        let mut out = Outbox::new();
        s.begin(&mut out);
        let req = sent(&mut out)[0].1.req();
        s.on_tip_reply(NodeId(0), req, Round(8), Round(0), &mut out);
        s.on_tip_reply(NodeId(1), req, Round(8), Round(0), &mut out);
        s.on_tip_reply(NodeId(2), req, Round(8), Round(0), &mut out);
        let (peer1, req) = match sent(&mut out)[0].clone() {
            (Some(p), SyncMsg::GetHeaders { req, .. }) => (p, req),
            other => panic!("expected GetHeaders, got {other:?}"),
        };
        assert_eq!(s.on_timer(req, Round(0), &mut out), SyncStep::Continue);
        let (peer2, req2) = match sent(&mut out)[0].clone() {
            (Some(p), SyncMsg::GetHeaders { req, .. }) => (p, req),
            other => panic!("expected retried GetHeaders, got {other:?}"),
        };
        assert_ne!(peer1, peer2, "retry must go to an alternate peer");
        assert_ne!(req, req2, "retry must use a fresh nonce");
        // Exhausting all three peers falls back to a fresh probe.
        s.on_timer(req2, Round(0), &mut out);
        let req3 = match sent(&mut out)[0].1 {
            SyncMsg::GetHeaders { req, .. } => req,
            ref m => panic!("expected GetHeaders, got {m:?}"),
        };
        assert_eq!(s.on_timer(req3, Round(0), &mut out), SyncStep::Continue);
        assert_eq!(s.phase(), SyncPhase::ProbingTips);
        assert!(matches!(
            sent(&mut out)[0],
            (None, SyncMsg::TipProbe { .. })
        ));
    }

    /// Feeds tips from all three peers, then times out every serving peer
    /// in turn until the machine falls back to a fresh probe. On return,
    /// `out` holds the fallback [`SyncMsg::TipProbe`] broadcast.
    fn run_all_fail_round(s: &mut Synchronizer, out: &mut Outbox<SyncMsg>) {
        let req = sent(out)[0].1.req();
        for p in 0..3 {
            s.on_tip_reply(NodeId(p), req, Round(8), Round(0), out);
        }
        for _ in 0..3 {
            let req = match sent(out)[0].1 {
                SyncMsg::GetHeaders { req, .. } => req,
                ref m => panic!("expected GetHeaders, got {m:?}"),
            };
            s.on_timer(req, Round(0), out);
        }
        assert_eq!(s.phase(), SyncPhase::ProbingTips);
    }

    #[test]
    fn transient_peer_is_released_after_its_quarantine_ttl() {
        let mut s = sync();
        let mut out = Outbox::new();
        s.begin(&mut out);
        run_all_fail_round(&mut s, &mut out);
        // The fallback probe ticked the quarantine clock: every first-strike
        // sentence (one probe cycle) has expired.
        assert!(
            s.quarantined_peers().is_empty(),
            "first strikes last one probe cycle"
        );
        // The previously failed best peer is eligible and serves again.
        let req = sent(&mut out)[0].1.req();
        for p in 0..3 {
            s.on_tip_reply(NodeId(p), req, Round(8), Round(0), &mut out);
        }
        match sent(&mut out)[0].clone() {
            (Some(p), SyncMsg::GetHeaders { .. }) => {
                assert_eq!(p, NodeId(0), "released peer serves again");
            }
            other => panic!("expected GetHeaders, got {other:?}"),
        }
    }

    #[test]
    fn repeat_offenders_serve_escalating_sentences_and_probing_never_stalls() {
        let mut s = sync();
        let mut out = Outbox::new();
        s.begin(&mut out);
        run_all_fail_round(&mut s, &mut out);
        assert!(s.quarantined_peers().is_empty());
        run_all_fail_round(&mut s, &mut out);
        // Second strikes hold for two probe cycles: still quarantined after
        // the fallback probe that released the first-time offenders above.
        assert_eq!(s.quarantined_peers(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        // Every reporter is quarantined: the machine forgives and re-probes
        // rather than stalling without a serving peer.
        let req = sent(&mut out)[0].1.req();
        for p in 0..3 {
            s.on_tip_reply(NodeId(p), req, Round(8), Round(0), &mut out);
        }
        assert_eq!(s.phase(), SyncPhase::ProbingTips);
        let msgs = sent(&mut out);
        assert!(
            matches!(msgs[0], (None, SyncMsg::TipProbe { .. })),
            "fresh probe, not a stall: {msgs:?}"
        );
        // After total forgiveness the next probe round fetches normally.
        let req = msgs[0].1.req();
        for p in 0..3 {
            s.on_tip_reply(NodeId(p), req, Round(8), Round(0), &mut out);
        }
        assert_eq!(s.phase(), SyncPhase::FetchingHeaders);
    }

    #[test]
    fn probe_finding_no_gap_finishes_immediately() {
        let mut s = sync();
        let mut out = Outbox::new();
        s.begin(&mut out);
        let req = sent(&mut out)[0].1.req();
        s.on_tip_reply(NodeId(0), req, Round(5), Round(9), &mut out);
        s.on_tip_reply(NodeId(1), req, Round(5), Round(9), &mut out);
        assert_eq!(
            s.on_tip_reply(NodeId(2), req, Round(5), Round(9), &mut out),
            SyncStep::CaughtUp,
            "local chain already past every reported tip"
        );
        assert_eq!(s.phase(), SyncPhase::CaughtUp);
        assert_eq!(s.rounds_fetched(), 0);
    }

    #[test]
    fn probe_timeout_with_partial_replies_proceeds() {
        let mut s = sync();
        let mut out = Outbox::new();
        s.begin(&mut out);
        let req = sent(&mut out)[0].1.req();
        // Only one of three peers answers before the timer fires.
        s.on_tip_reply(NodeId(2), req, Round(3), Round(0), &mut out);
        assert_eq!(s.on_timer(req, Round(0), &mut out), SyncStep::Continue);
        match sent(&mut out)[0].clone() {
            (Some(p), SyncMsg::GetHeaders { from, to, .. }) => {
                assert_eq!(p, NodeId(2));
                assert_eq!((from, to), (Round(0), Round(3)));
            }
            other => panic!("expected GetHeaders, got {other:?}"),
        }
    }

    #[test]
    fn begin_is_idempotent_while_active() {
        let mut s = sync();
        let mut out = Outbox::new();
        s.begin(&mut out);
        assert_eq!(sent(&mut out).len(), 1);
        s.begin(&mut out);
        assert_eq!(sent(&mut out).len(), 0, "second begin must not re-probe");
        assert!(s.is_active());
    }
}
