//! Client ingress admission: the pipeline between a node's RPC listener and
//! its (sharded) [`crate::TxPool`].
//!
//! The north star serves "heavy traffic from millions of users"; what makes
//! that survivable is not raw pool throughput but *graceful refusal*. The
//! [`IngressGate`] sits in front of the pool and applies, in order:
//!
//! 1. **Availability** — a node that is catching up (the worker's
//!    [`crate::Synchronizer`] is active) answers
//!    [`SubmitStatus::Syncing`]; a node known to be down/paused answers
//!    [`SubmitStatus::Busy`]. Accepting work the node is about to lose
//!    would turn into silent loss; refusing it is the honest signal.
//! 2. **Dedup window** — a bounded window of recently admitted or committed
//!    `(client, seq)` ids answers [`SubmitStatus::Duplicate`], so retry
//!    storms after a lost ack do not double-admit.
//! 3. **Per-client token bucket** — integer-arithmetic rate limiting
//!    (deterministic under the simulator: the gate never reads a clock, the
//!    caller passes `now_nanos`), answering [`SubmitStatus::RateLimited`]
//!    with a computed retry hint.
//! 4. **Bounded queue with priority shedding** — admission is capped by the
//!    number of accepted-but-uncommitted transactions. Lanes shed
//!    asymmetrically (RED-style thresholds): [`Lane::Bulk`] is refused once
//!    the queue passes its low threshold, [`Lane::Normal`] past its high
//!    threshold, [`Lane::Probe`] only when the queue is full — so health
//!    probes keep landing while bulk traffic backs off first.
//!
//! Every refusal is a **typed, client-visible** status — the gate never
//! drops silently — and every count is exact, surfaced through
//! [`IngressGate::stats`] into the run report's `ingress` section.
//!
//! The gate is runtime-agnostic: the TCP listener and the simulator's
//! sliced driver both feed the same
//! [`IngressGate::handle`] entry point, which keeps the admission matrix
//! one implementation wide.

use fireledger_types::rpc::{Lane, RpcMsg, SubmitStatus};
use fireledger_types::{RejectReason, Round, Transaction};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Coarse node availability as seen by the admission gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Availability {
    /// Accepting work.
    Up,
    /// Catching up through state sync: client work would be accepted into a
    /// pool the node may discard — answer `Syncing` instead.
    Syncing,
    /// Crashed, paused or killed: answer `Busy` so clients fail over.
    Down,
}

/// Tuning knobs for the [`IngressGate`]. Defaults are sized for the soak
/// scenarios; every test overrides what it measures.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Recently-seen `(client, seq)` ids kept for duplicate suppression.
    ///
    /// **Eviction bound:** the window is FIFO over *admissions*, except that
    /// an id still inflight (accepted, not yet committed) is never evicted —
    /// its retry must stay `Duplicate` until it commits, or the same
    /// transaction could be admitted twice. Inflight ids are themselves
    /// bounded by `capacity`, so the dedup set holds at most
    /// `dedup_window + capacity` entries; an id that ages out becomes
    /// re-acceptable (clients are expected not to reuse a sequence number
    /// `dedup_window` admissions later). Pinned by
    /// `dedup_window_eviction_is_bounded_by_window_plus_capacity`.
    pub dedup_window: usize,
    /// Token-bucket refill rate per client, in transactions per second.
    /// `0` disables rate limiting.
    pub rate_per_sec: u64,
    /// Token-bucket burst capacity per client, in transactions.
    pub burst: u64,
    /// Bound on accepted-but-uncommitted transactions (the admission
    /// queue). Beyond it even probes shed.
    pub capacity: usize,
    /// Queue fill percentage past which [`Lane::Bulk`] sheds.
    pub bulk_shed_pct: u32,
    /// Queue fill percentage past which [`Lane::Normal`] sheds.
    pub normal_shed_pct: u32,
    /// Back-off hint attached to `Busy` rejections, in milliseconds.
    pub retry_after_ms: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            dedup_window: 4096,
            rate_per_sec: 0,
            burst: 64,
            capacity: 1024,
            bulk_shed_pct: 50,
            normal_shed_pct: 85,
            retry_after_ms: 20,
        }
    }
}

/// Micro-tokens per token: buckets are integer-only so identical call
/// sequences refill identically on every platform (no float drift).
const MICRO: u64 = 1_000_000;

#[derive(Clone, Copy, Debug)]
struct Bucket {
    micro_tokens: u64,
    last_refill_nanos: u64,
}

/// Mutable admission state, guarded by one mutex (admission is cheap: a few
/// hash operations per submit; the heavy lifting stays in the sharded pool).
#[derive(Debug, Default)]
struct Inner {
    /// Dedup window: membership set plus insertion ring for eviction.
    seen: HashSet<(u64, u64)>,
    seen_order: VecDeque<(u64, u64)>,
    /// Accepted-but-uncommitted ids, each with its admission lane (so the
    /// commit counters stay per-lane).
    inflight: HashMap<(u64, u64), Lane>,
    /// Per-client token buckets.
    buckets: HashMap<u64, Bucket>,
    /// Recent commit notifications for subscribers: `(round, tx_count)`.
    events: VecDeque<(u64, u32)>,
}

/// Exact per-lane admission counters (a snapshot of [`IngressGate::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Submissions admitted into the pool.
    pub accepted: u64,
    /// Admitted submissions later observed committed.
    pub committed: u64,
    /// Refused with `Busy` (queue bound or node down).
    pub shed_busy: u64,
    /// Refused with `RateLimited`.
    pub shed_rate_limited: u64,
    /// Refused with `Duplicate`.
    pub duplicate: u64,
    /// Refused with `Syncing`.
    pub rejected_syncing: u64,
}

impl LaneStats {
    /// Total refusals of every kind.
    pub fn shed_total(&self) -> u64 {
        self.shed_busy + self.shed_rate_limited + self.duplicate + self.rejected_syncing
    }
}

/// Per-gate admission statistics: one [`LaneStats`] per [`Lane`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Indexed by [`Lane::index`].
    pub lanes: [LaneStats; 3],
}

impl IngressStats {
    /// The stats of one lane.
    pub fn lane(&self, lane: Lane) -> &LaneStats {
        &self.lanes[lane.index()]
    }

    /// Total accepted across lanes.
    pub fn accepted(&self) -> u64 {
        self.lanes.iter().map(|l| l.accepted).sum()
    }

    /// Total refusals across lanes.
    pub fn shed(&self) -> u64 {
        self.lanes.iter().map(|l| l.shed_total()).sum()
    }
}

/// Atomic counters behind [`IngressStats`] (6 counters × 3 lanes).
#[derive(Debug, Default)]
struct LaneCounters {
    accepted: AtomicU64,
    committed: AtomicU64,
    shed_busy: AtomicU64,
    shed_rate_limited: AtomicU64,
    duplicate: AtomicU64,
    rejected_syncing: AtomicU64,
}

/// The admission gate. One per node; shared (`Arc`) between the node's RPC
/// listener, its event loop (availability mirroring) and the harness
/// (commit notification + stats).
#[derive(Debug)]
pub struct IngressGate {
    cfg: AdmissionConfig,
    inner: Mutex<Inner>,
    availability: AtomicU8,
    /// Definite (committed) round count, mirrored from delivery
    /// notifications — what `Query` answers.
    definite: AtomicU64,
    next_ticket: AtomicU64,
    counters: [LaneCounters; 3],
}

impl IngressGate {
    /// Creates a gate with the given admission policy, initially `Up`.
    pub fn new(cfg: AdmissionConfig) -> Self {
        IngressGate {
            cfg,
            inner: Mutex::new(Inner::default()),
            availability: AtomicU8::new(0),
            definite: AtomicU64::new(0),
            next_ticket: AtomicU64::new(1),
            counters: Default::default(),
        }
    }

    /// The policy this gate was built with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Mirrors the node's availability into the gate. Called by the event
    /// loop (sync phase transitions) and the fault driver (crash/pause/kill
    /// windows).
    pub fn set_availability(&self, a: Availability) {
        let v = match a {
            Availability::Up => 0,
            Availability::Syncing => 1,
            Availability::Down => 2,
        };
        self.availability.store(v, Ordering::Release);
    }

    /// Current mirrored availability.
    pub fn availability(&self) -> Availability {
        match self.availability.load(Ordering::Acquire) {
            1 => Availability::Syncing,
            2 => Availability::Down,
            _ => Availability::Up,
        }
    }

    /// The definite (committed) round count the gate has been told about.
    pub fn definite(&self) -> Round {
        Round(self.definite.load(Ordering::Acquire))
    }

    /// Exact admission counters so far.
    pub fn stats(&self) -> IngressStats {
        let mut out = IngressStats::default();
        for (lane, c) in out.lanes.iter_mut().zip(&self.counters) {
            *lane = LaneStats {
                accepted: c.accepted.load(Ordering::Relaxed),
                committed: c.committed.load(Ordering::Relaxed),
                shed_busy: c.shed_busy.load(Ordering::Relaxed),
                shed_rate_limited: c.shed_rate_limited.load(Ordering::Relaxed),
                duplicate: c.duplicate.load(Ordering::Relaxed),
                rejected_syncing: c.rejected_syncing.load(Ordering::Relaxed),
            };
        }
        out
    }

    /// Admitted-but-uncommitted transaction count (the bounded queue's
    /// occupancy).
    pub fn inflight(&self) -> usize {
        self.inner.lock().expect("ingress gate").inflight.len()
    }

    fn lane_limit(&self, lane: Lane) -> usize {
        let pct = |p: u32| (self.cfg.capacity.saturating_mul(p as usize)) / 100;
        match lane {
            Lane::Probe => self.cfg.capacity,
            Lane::Normal => pct(self.cfg.normal_shed_pct),
            Lane::Bulk => pct(self.cfg.bulk_shed_pct),
        }
    }

    /// Runs the admission pipeline for one submission. Pure with respect to
    /// time: the caller supplies `now_nanos` (simulated or wall-clock), so
    /// identical call sequences decide identically.
    pub fn try_submit(&self, client: u64, seq: u64, lane: Lane, now_nanos: u64) -> SubmitStatus {
        let c = &self.counters[lane.index()];
        match self.availability() {
            Availability::Up => {}
            Availability::Syncing => {
                c.rejected_syncing.fetch_add(1, Ordering::Relaxed);
                return SubmitStatus::Syncing;
            }
            Availability::Down => {
                c.shed_busy.fetch_add(1, Ordering::Relaxed);
                return SubmitStatus::Busy {
                    retry_after_ms: self.cfg.retry_after_ms,
                };
            }
        }
        let id = (client, seq);
        let mut inner = self.inner.lock().expect("ingress gate");
        if inner.seen.contains(&id) {
            drop(inner);
            c.duplicate.fetch_add(1, Ordering::Relaxed);
            return SubmitStatus::Duplicate;
        }
        if self.cfg.rate_per_sec > 0 {
            let burst_micro = self.cfg.burst.max(1).saturating_mul(MICRO);
            let rate = self.cfg.rate_per_sec;
            let bucket = inner.buckets.entry(client).or_insert(Bucket {
                micro_tokens: burst_micro,
                last_refill_nanos: now_nanos,
            });
            // Integer refill: rate tx/s over `elapsed` ns adds
            // rate · elapsed / 1000 micro-tokens (10⁶ micro per token,
            // 10⁹ ns per second).
            let elapsed = now_nanos.saturating_sub(bucket.last_refill_nanos);
            bucket.micro_tokens =
                burst_micro.min(bucket.micro_tokens + rate.saturating_mul(elapsed) / 1000);
            bucket.last_refill_nanos = now_nanos;
            if bucket.micro_tokens < MICRO {
                // Hint: time until one full token accrues.
                let deficit = MICRO - bucket.micro_tokens;
                let wait_ms = (deficit.saturating_mul(1000) / rate).div_ceil(1_000_000);
                drop(inner);
                c.shed_rate_limited.fetch_add(1, Ordering::Relaxed);
                return SubmitStatus::RateLimited {
                    retry_after_ms: wait_ms.max(1) as u32,
                };
            }
            bucket.micro_tokens -= MICRO;
        }
        if inner.inflight.len() >= self.lane_limit(lane).max(1) {
            drop(inner);
            c.shed_busy.fetch_add(1, Ordering::Relaxed);
            return SubmitStatus::Busy {
                retry_after_ms: self.cfg.retry_after_ms,
            };
        }
        inner.inflight.insert(id, lane);
        inner.seen.insert(id);
        inner.seen_order.push_back(id);
        // Eviction policy (see `AdmissionConfig::dedup_window`): drop the
        // oldest admitted ids down to the window, but never an id that is
        // still inflight — it rotates to the back instead (at most one
        // rotation per submit, so a stuck head cannot spin this loop). Each
        // submit adds one entry and an inflight entry stays counted against
        // `capacity`, so `seen` never exceeds `dedup_window + capacity`.
        while inner.seen_order.len() > self.cfg.dedup_window {
            if let Some(old) = inner.seen_order.pop_front() {
                if inner.inflight.contains_key(&old) {
                    inner.seen_order.push_back(old);
                    break;
                }
                inner.seen.remove(&old);
            }
        }
        drop(inner);
        c.accepted.fetch_add(1, Ordering::Relaxed);
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        SubmitStatus::Accepted { ticket }
    }

    /// Notes a committed block: frees the admission-queue slots of its
    /// transactions, advances the definite tip, and records one subscriber
    /// event. `round` is the block's round; `txs` its transaction list.
    pub fn note_commit<'a>(&self, round: Round, txs: impl IntoIterator<Item = &'a Transaction>) {
        let mut inner = self.inner.lock().expect("ingress gate");
        let mut count = 0u32;
        for tx in txs {
            count += 1;
            if let Some(lane) = inner.inflight.remove(&tx.id()) {
                self.counters[lane.index()]
                    .committed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.events.push_back((round.0, count));
        while inner.events.len() > 1024 {
            inner.events.pop_front();
        }
        drop(inner);
        self.definite.fetch_max(round.0 + 1, Ordering::AcqRel);
    }

    /// Commit events with round `>= from`, oldest first — the poll-based
    /// feed behind [`RpcMsg::Subscribe`].
    pub fn events_since(&self, from: Round) -> Vec<(Round, u32)> {
        let inner = self.inner.lock().expect("ingress gate");
        inner
            .events
            .iter()
            .filter(|(r, _)| *r >= from.0)
            .map(|(r, n)| (Round(*r), *n))
            .collect()
    }

    /// Serves one client RPC message: the single dispatch point shared by
    /// every runtime's listener. Returns the reply to send back and, for an
    /// accepted submission, the transaction to hand the node.
    ///
    /// Server-only verbs arriving from a client (acks, replies, events) are
    /// protocol violations and answered with a typed [`RpcMsg::Reject`].
    pub fn handle(&self, msg: &RpcMsg, now_nanos: u64) -> (RpcMsg, Option<Transaction>) {
        match msg {
            RpcMsg::Submit {
                client,
                seq,
                lane,
                payload,
            } => {
                let status = self.try_submit(*client, *seq, *lane, now_nanos);
                let tx = status
                    .is_accepted()
                    .then(|| Transaction::new(*client, *seq, payload.clone()));
                (
                    RpcMsg::SubmitAck {
                        client: *client,
                        seq: *seq,
                        status,
                    },
                    tx,
                )
            }
            RpcMsg::Query { req } => (
                RpcMsg::QueryReply {
                    req: *req,
                    definite: self.definite(),
                },
                None,
            ),
            RpcMsg::Subscribe { from } => {
                // Immediate position marker; the listener then streams
                // subsequent commits through `events_since`.
                let evt = self
                    .events_since(*from)
                    .first()
                    .copied()
                    .unwrap_or((self.definite(), 0));
                (
                    RpcMsg::Event {
                        round: evt.0,
                        tx_count: evt.1,
                    },
                    None,
                )
            }
            RpcMsg::SubmitAck { .. }
            | RpcMsg::QueryReply { .. }
            | RpcMsg::Event { .. }
            | RpcMsg::Reject { .. } => (
                RpcMsg::Reject {
                    reason: RejectReason::BadMessage,
                },
                None,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txpool::TxPool;

    impl IngressGate {
        /// Ids currently held for duplicate suppression — bounded by
        /// `dedup_window + capacity` (see [`AdmissionConfig::dedup_window`]).
        fn dedup_entries(&self) -> usize {
            self.inner.lock().expect("ingress gate").seen.len()
        }
    }

    fn gate(cfg: AdmissionConfig) -> IngressGate {
        IngressGate::new(cfg)
    }

    fn small() -> AdmissionConfig {
        AdmissionConfig {
            capacity: 10,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn accepts_then_dedups_until_committed_ids_age_out() {
        let g = gate(AdmissionConfig {
            dedup_window: 2,
            ..small()
        });
        assert!(g.try_submit(1, 0, Lane::Normal, 0).is_accepted());
        assert_eq!(g.try_submit(1, 0, Lane::Normal, 0), SubmitStatus::Duplicate);
        // Committing frees the queue slot but the window still dedups.
        g.note_commit(Round(0), [Transaction::zeroed(1, 0, 4)].iter());
        assert_eq!(g.try_submit(1, 0, Lane::Normal, 0), SubmitStatus::Duplicate);
        // Two more ids push (1, 0) out of the window.
        assert!(g.try_submit(1, 1, Lane::Normal, 0).is_accepted());
        g.note_commit(Round(1), [Transaction::zeroed(1, 1, 4)].iter());
        assert!(g.try_submit(1, 2, Lane::Normal, 0).is_accepted());
        g.note_commit(Round(2), [Transaction::zeroed(1, 2, 4)].iter());
        assert!(
            g.try_submit(1, 0, Lane::Normal, 0).is_accepted(),
            "aged-out id readmits"
        );
    }

    #[test]
    fn inflight_ids_survive_dedup_eviction() {
        // A window smaller than the inflight set must not evict an
        // uncommitted id — its retry has to stay Duplicate.
        let g = gate(AdmissionConfig {
            dedup_window: 1,
            ..small()
        });
        assert!(g.try_submit(1, 0, Lane::Normal, 0).is_accepted());
        assert!(g.try_submit(1, 1, Lane::Normal, 0).is_accepted());
        assert_eq!(g.try_submit(1, 0, Lane::Normal, 0), SubmitStatus::Duplicate);
        assert_eq!(g.try_submit(1, 1, Lane::Normal, 0), SubmitStatus::Duplicate);
    }

    #[test]
    fn dedup_window_eviction_is_bounded_by_window_plus_capacity() {
        // The documented eviction bound of `AdmissionConfig::dedup_window`:
        // the dedup set never exceeds dedup_window + capacity entries, no
        // matter how many ids flow through or how commits interleave.
        let (window, capacity) = (16usize, 8usize);
        let g = gate(AdmissionConfig {
            dedup_window: window,
            capacity,
            ..AdmissionConfig::default()
        });
        // Phase 1: pin half the capacity inflight (never committed), leaving
        // headroom so churn submits in phase 2 are not refused as Busy.
        let pinned = capacity / 2;
        for seq in 0..pinned as u64 {
            assert!(g.try_submit(1, seq, Lane::Probe, 0).is_accepted());
        }
        assert_eq!(g.inflight(), pinned);
        // Phase 2: churn many more ids through, committing each immediately
        // so the queue never refuses — the dedup set is what's under test.
        for seq in 0..500u64 {
            assert!(g.try_submit(2, seq, Lane::Probe, 0).is_accepted());
            g.note_commit(Round(seq), [Transaction::zeroed(2, seq, 4)].iter());
            assert!(
                g.dedup_entries() <= window + capacity,
                "dedup set grew past the documented bound at seq {seq}: {} > {}",
                g.dedup_entries(),
                window + capacity
            );
        }
        // The pinned inflight ids were never evicted…
        for seq in 0..pinned as u64 {
            assert_eq!(
                g.try_submit(1, seq, Lane::Probe, 0),
                SubmitStatus::Duplicate
            );
        }
        // …while churned ids older than the window aged out and readmit.
        assert!(g.try_submit(2, 0, Lane::Probe, 0).is_accepted());
        // Recent churned ids inside the window still dedup.
        assert_eq!(
            g.try_submit(2, 499, Lane::Probe, 0),
            SubmitStatus::Duplicate
        );
    }

    #[test]
    fn token_bucket_rate_limits_and_refills_deterministically() {
        let g = gate(AdmissionConfig {
            rate_per_sec: 10,
            burst: 2,
            capacity: 1000,
            ..AdmissionConfig::default()
        });
        // Burst of 2, then limited.
        assert!(g.try_submit(1, 0, Lane::Normal, 0).is_accepted());
        assert!(g.try_submit(1, 1, Lane::Normal, 0).is_accepted());
        let r = g.try_submit(1, 2, Lane::Normal, 0);
        let SubmitStatus::RateLimited { retry_after_ms } = r else {
            panic!("expected RateLimited, got {r:?}");
        };
        // 10 tx/s → one token per 100 ms.
        assert_eq!(retry_after_ms, 100);
        // 100 ms later exactly one more token has accrued.
        let t = 100_000_000u64;
        assert!(g.try_submit(1, 2, Lane::Normal, t).is_accepted());
        assert!(matches!(
            g.try_submit(1, 3, Lane::Normal, t),
            SubmitStatus::RateLimited { .. }
        ));
        // Another client has its own bucket.
        assert!(g.try_submit(2, 0, Lane::Normal, t).is_accepted());
        let stats = g.stats();
        assert_eq!(stats.lane(Lane::Normal).accepted, 4);
        assert_eq!(stats.lane(Lane::Normal).shed_rate_limited, 2);
    }

    #[test]
    fn lanes_shed_in_priority_order_with_exact_counts() {
        let g = gate(AdmissionConfig {
            capacity: 10,
            bulk_shed_pct: 50,
            normal_shed_pct: 80,
            ..AdmissionConfig::default()
        });
        // Fill to 5 (bulk limit): bulk sheds, normal and probe flow.
        for seq in 0..5 {
            assert!(g.try_submit(1, seq, Lane::Bulk, 0).is_accepted());
        }
        assert!(matches!(
            g.try_submit(1, 100, Lane::Bulk, 0),
            SubmitStatus::Busy { .. }
        ));
        // Fill to 8 (normal limit): normal sheds, probe still flows.
        for seq in 5..8 {
            assert!(g.try_submit(1, seq, Lane::Normal, 0).is_accepted());
        }
        assert!(matches!(
            g.try_submit(1, 101, Lane::Normal, 0),
            SubmitStatus::Busy { .. }
        ));
        // Fill to capacity: even probes shed.
        for seq in 8..10 {
            assert!(g.try_submit(1, seq, Lane::Probe, 0).is_accepted());
        }
        assert!(matches!(
            g.try_submit(1, 102, Lane::Probe, 0),
            SubmitStatus::Busy { .. }
        ));
        let stats = g.stats();
        assert_eq!(stats.lane(Lane::Bulk).shed_busy, 1);
        assert_eq!(stats.lane(Lane::Normal).shed_busy, 1);
        assert_eq!(stats.lane(Lane::Probe).shed_busy, 1);
        assert_eq!(stats.accepted(), 10);
        assert_eq!(g.inflight(), 10);
        // Commits free slots. At exactly the bulk threshold (5 of 10) bulk
        // still sheds; one more commit drops below it and bulk flows again.
        let committed: Vec<Transaction> = (0..5).map(|s| Transaction::zeroed(1, s, 4)).collect();
        g.note_commit(Round(0), committed.iter());
        assert_eq!(g.inflight(), 5);
        assert!(matches!(
            g.try_submit(1, 200, Lane::Bulk, 0),
            SubmitStatus::Busy { .. }
        ));
        g.note_commit(Round(1), [Transaction::zeroed(1, 5, 4)].iter());
        assert!(g.try_submit(1, 200, Lane::Bulk, 0).is_accepted());
        assert_eq!(g.stats().lane(Lane::Bulk).committed, 5);
    }

    #[test]
    fn syncing_and_down_nodes_refuse_typed() {
        let g = gate(small());
        g.set_availability(Availability::Syncing);
        assert_eq!(g.try_submit(1, 0, Lane::Normal, 0), SubmitStatus::Syncing);
        g.set_availability(Availability::Down);
        assert!(matches!(
            g.try_submit(1, 1, Lane::Normal, 0),
            SubmitStatus::Busy { .. }
        ));
        g.set_availability(Availability::Up);
        assert!(g.try_submit(1, 2, Lane::Normal, 0).is_accepted());
        let stats = g.stats();
        assert_eq!(stats.lane(Lane::Normal).rejected_syncing, 1);
        assert_eq!(stats.lane(Lane::Normal).shed_busy, 1);
        assert_eq!(stats.lane(Lane::Normal).accepted, 1);
    }

    #[test]
    fn handle_dispatches_every_verb() {
        let g = gate(small());
        let (reply, tx) = g.handle(
            &RpcMsg::Submit {
                client: 3,
                seq: 7,
                lane: Lane::Normal,
                payload: vec![9, 9],
            },
            0,
        );
        assert!(matches!(
            reply,
            RpcMsg::SubmitAck {
                client: 3,
                seq: 7,
                status: SubmitStatus::Accepted { .. }
            }
        ));
        assert_eq!(tx, Some(Transaction::new(3, 7, vec![9, 9])));

        g.note_commit(Round(4), [Transaction::new(3, 7, vec![9, 9])].iter());
        let (reply, tx) = g.handle(&RpcMsg::Query { req: 11 }, 0);
        assert_eq!(
            reply,
            RpcMsg::QueryReply {
                req: 11,
                definite: Round(5)
            }
        );
        assert!(tx.is_none());

        let (reply, _) = g.handle(&RpcMsg::Subscribe { from: Round(0) }, 0);
        assert_eq!(
            reply,
            RpcMsg::Event {
                round: Round(4),
                tx_count: 1
            }
        );

        // Server-only verbs are a typed protocol violation.
        let (reply, _) = g.handle(
            &RpcMsg::Event {
                round: Round(0),
                tx_count: 0,
            },
            0,
        );
        assert_eq!(
            reply,
            RpcMsg::Reject {
                reason: RejectReason::BadMessage
            }
        );
    }

    #[test]
    fn events_since_filters_by_round() {
        let g = gate(small());
        g.note_commit(Round(0), std::iter::empty());
        g.note_commit(Round(1), std::iter::empty());
        g.note_commit(Round(2), std::iter::empty());
        assert_eq!(g.events_since(Round(1)), vec![(Round(1), 0), (Round(2), 0)]);
        assert!(g.events_since(Round(3)).is_empty());
    }

    // --- satellite: sharded pool under sustained overflow, behind admission ---

    #[test]
    fn overflow_keeps_per_client_fifo_and_exact_shed_counts() {
        let g = gate(AdmissionConfig {
            capacity: 32,
            bulk_shed_pct: 100,
            normal_shed_pct: 100,
            ..AdmissionConfig::default()
        });
        let pool = TxPool::new(999);
        const CLIENTS: u64 = 4;
        const PER_CLIENT: u64 = 50;
        let mut accepted: Vec<(u64, u64)> = Vec::new();
        let mut shed = 0u64;
        // Sustained overflow: nobody commits, so the queue saturates at
        // `capacity` and every further submit sheds — with an exact count.
        for seq in 0..PER_CLIENT {
            for client in 0..CLIENTS {
                match g.try_submit(client, seq, Lane::Normal, 0) {
                    SubmitStatus::Accepted { .. } => {
                        assert!(pool.submit(Transaction::zeroed(client, seq, 8)));
                        accepted.push((client, seq));
                    }
                    SubmitStatus::Busy { .. } => shed += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(accepted.len(), 32, "admission bound ignored");
        assert_eq!(shed, CLIENTS * PER_CLIENT - 32);
        assert_eq!(g.stats().lane(Lane::Normal).shed_busy, shed);
        assert_eq!(g.stats().lane(Lane::Normal).accepted, 32);
        // The pool drains exactly the admitted set, per-client FIFO.
        let batch = pool.take_batch(1000, 8, false);
        assert_eq!(batch.len(), accepted.len());
        for client in 0..CLIENTS {
            let seqs: Vec<u64> = batch
                .iter()
                .filter(|t| t.client == client)
                .map(|t| t.seq)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "client {client} reordered under overflow");
        }
    }

    #[test]
    fn single_threaded_admitted_stream_is_bit_identical_to_unsharded_reference() {
        // With admission enabled, a single-threaded run through the sharded
        // pool must produce byte-for-byte the batches a plain FIFO would:
        // admission must not perturb order, content or encoding.
        use fireledger_types::WireCodec;
        let g = gate(AdmissionConfig {
            capacity: 64,
            rate_per_sec: 100_000,
            burst: 64,
            ..AdmissionConfig::default()
        });
        let pool = TxPool::new(7);
        let mut reference: VecDeque<Transaction> = VecDeque::new();
        let mut now = 0u64;
        for i in 0..200u64 {
            now += 1_000_000;
            let (client, seq) = (i % 5, i / 5);
            let tx = Transaction::new(client, seq, vec![(i % 251) as u8; 16]);
            if g.try_submit(client, seq, Lane::Normal, now).is_accepted() {
                assert!(pool.submit(tx.clone()));
                reference.push_back(tx);
            }
            // Drain in small batches mid-stream, like a proposer would.
            if i % 17 == 0 {
                let batch = pool.take_batch(8, 16, false);
                let expect: Vec<Transaction> = (0..batch.len())
                    .filter_map(|_| reference.pop_front())
                    .collect();
                let got: Vec<u8> = batch.iter().flat_map(|t| t.encode()).collect();
                let want: Vec<u8> = expect.iter().flat_map(|t| t.encode()).collect();
                assert_eq!(got, want, "sharded batch diverged at i={i}");
                let committed: Vec<Transaction> = batch;
                g.note_commit(Round(i), committed.iter());
            }
        }
        let batch = pool.take_batch(10_000, 16, false);
        let got: Vec<u8> = batch.iter().flat_map(|t| t.encode()).collect();
        let want: Vec<u8> = reference.iter().flat_map(|t| t.encode()).collect();
        assert_eq!(got, want, "final drain diverged");
    }
}
