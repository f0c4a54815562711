//! The state-sync matrix: late-joining nodes catch up to a byte-identical
//! ledger through the block-fetch sub-protocol on every runtime, healed
//! partitions re-sync through fetch rather than buffered redelivery, and
//! randomized fetch schedules (range splits, duplicates, reordering, a
//! lying peer) always reassemble exactly the canonical prefix.
//!
//! The small `*_smoke` variants run everywhere; the `*_full_5k` variants
//! reproduce the paper-scale acceptance case — a node started at block
//! 5000 — and are sized for release builds, so they are `#[ignore]`d here
//! and driven by the `sync-matrix` CI job with `--release -- --ignored`.

use fireledger::sync::TIMER_SYNC;
use fireledger::WorkerMsg;
use fireledger_crypto::{hash_header, SimKeyStore};
use fireledger_integration_tests::test_params;
use fireledger_runtime::prelude::*;
use fireledger_sim::{SimConfig, Simulation};
use fireledger_types::{Action, DetRng, Hash, Outbox, Protocol, SyncMsg, TimerId};
use std::sync::Arc;
use std::time::Duration;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// Runs `cluster` with node `n-1` late-joining once the reference node has
/// delivered `gap` blocks, then asserts the late node caught up past the
/// join point with a ledger byte-identical to the reference's.
fn assert_late_join_catches_up<P: ClusterProtocol, R: Runtime>(
    rt: R,
    cluster: ClusterBuilder<P>,
    gap: u64,
    duration: Duration,
) {
    let n = cluster.params().cluster.n;
    let late = NodeId(n as u32 - 1);
    let scenario = Scenario::new("late-join")
        .ideal()
        .run_for(duration)
        .with_warmup(Duration::ZERO);
    let (_, deliveries) = rt
        .run_full(&cluster.with_late_join(late, gap), &scenario)
        .expect("late-join run");
    let reference = &deliveries[0];
    let joined = &deliveries[late.as_usize()];
    assert!(
        joined.len() as u64 > gap,
        "late node must catch up past its {gap}-block join point, got {}",
        joined.len()
    );
    let common = reference.len().min(joined.len());
    assert_eq!(
        &reference[..common],
        &joined[..common],
        "late node's fetched ledger diverges from the cluster's"
    );
}

// ---------------------------------------------------------------------------
// Smoke variants: small gaps, sized for debug builds; run in tier-1.
// ---------------------------------------------------------------------------

#[test]
fn sim_flo_late_join_smoke() {
    assert_late_join_catches_up(
        Simulator,
        ClusterBuilder::<FloCluster>::new(test_params(4, 1)),
        200,
        Duration::from_secs(2),
    );
}

#[test]
fn sim_worker_late_join_smoke() {
    assert_late_join_catches_up(
        Simulator,
        ClusterBuilder::<Worker>::new(test_params(4, 1)),
        200,
        Duration::from_secs(2),
    );
}

#[test]
fn sim_flo_multiworker_late_join_smoke() {
    // With ω > 1 the fetch runs per worker ledger and the merged delivery
    // stream must still be prefix-identical.
    assert_late_join_catches_up(
        Simulator,
        ClusterBuilder::<FloCluster>::new(test_params(4, 2)),
        200,
        Duration::from_secs(2),
    );
}

#[test]
fn tcp_flo_late_join_smoke() {
    assert_late_join_catches_up(
        Tcp,
        ClusterBuilder::<FloCluster>::new(test_params(4, 1)),
        100,
        Duration::from_secs(4),
    );
}

#[test]
fn tcp_worker_late_join_smoke() {
    assert_late_join_catches_up(
        Tcp,
        ClusterBuilder::<Worker>::new(test_params(4, 1)),
        100,
        Duration::from_secs(4),
    );
}

// ---------------------------------------------------------------------------
// Full variants: the acceptance case — a node started at block 5000.
// Sized for release builds; the sync-matrix CI job runs them with
// `--release -- --ignored`.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "release-sized: run via the sync-matrix CI job"]
fn sim_flo_late_join_full_5k() {
    assert_late_join_catches_up(
        Simulator,
        ClusterBuilder::<FloCluster>::new(test_params(4, 1)),
        5_000,
        Duration::from_secs(20),
    );
}

#[test]
#[ignore = "release-sized: run via the sync-matrix CI job"]
fn sim_worker_late_join_full_5k() {
    assert_late_join_catches_up(
        Simulator,
        ClusterBuilder::<Worker>::new(test_params(4, 1)),
        5_000,
        Duration::from_secs(20),
    );
}

#[test]
#[ignore = "release-sized: run via the sync-matrix CI job"]
fn tcp_flo_late_join_full_5k() {
    assert_late_join_catches_up(
        Tcp,
        ClusterBuilder::<FloCluster>::new(test_params(4, 1)),
        5_000,
        Duration::from_secs(12),
    );
}

#[test]
#[ignore = "release-sized: run via the sync-matrix CI job"]
fn tcp_worker_late_join_full_5k() {
    assert_late_join_catches_up(
        Tcp,
        ClusterBuilder::<Worker>::new(test_params(4, 1)),
        5_000,
        Duration::from_secs(12),
    );
}

// ---------------------------------------------------------------------------
// Healed partition: the minority side re-syncs through block fetch.
// ---------------------------------------------------------------------------

/// With a *lossy* partition the runtime heals the route but never delivers
/// the traffic queued during the split — the buffered-delivery crutch is
/// off, so the only way the minority node can close the gap is the sync
/// fetch triggered by its lag detector.
#[test]
fn healed_lossy_minority_partition_resyncs_via_fetch() {
    let plan = FaultPlan::named("lossy-minority").partition_lossy(
        vec![vec![NodeId(0), NodeId(1), NodeId(2)], vec![NodeId(3)]],
        ms(300),
        Some(ms(1200)),
    );
    let scenario = Scenario::new("healed-lossy")
        .ideal()
        .with_faults(plan)
        .run_for(Duration::from_secs(4))
        .with_warmup(Duration::ZERO);
    let cluster = ClusterBuilder::<FloCluster>::new(test_params(4, 1));
    let (_, deliveries) = Simulator.run_full(&cluster, &scenario).expect("lossy run");
    let reference = &deliveries[0];
    let minority = &deliveries[3];
    // The majority never stalled...
    assert!(
        reference.len() > 500,
        "majority stalled: {}",
        reference.len()
    );
    // ...and the minority node, which lost ~900ms of traffic outright,
    // fetched its way back to the same ledger.
    let common = reference.len().min(minority.len());
    assert_eq!(
        &reference[..common],
        &minority[..common],
        "re-synced ledger diverges"
    );
    assert!(
        minority.len() as f64 > reference.len() as f64 * 0.8,
        "minority node never re-synced: {} of {} blocks",
        minority.len(),
        reference.len()
    );
}

// ---------------------------------------------------------------------------
// Randomized property: arbitrary fetch schedules reassemble the canonical
// prefix exactly.
// ---------------------------------------------------------------------------

fn worker_ring(n: usize, batch: usize, seed: u64) -> (Vec<Worker>, ProtocolParams) {
    let params = ProtocolParams::new(n)
        .with_batch_size(batch)
        .with_tx_size(64)
        .with_base_timeout(ms(20));
    let crypto = SimKeyStore::generate(n, seed).shared();
    let workers = (0..n)
        .map(|i| {
            Worker::new(
                NodeId(i as u32),
                WorkerId(0),
                params.clone(),
                crypto.clone(),
                Arc::new(AcceptAll),
            )
        })
        .collect();
    (workers, params)
}

/// The serving side of one pump step: feed `msg` to a (frozen) cluster
/// node and collect the sync replies it addresses to the late worker.
fn serve(
    sim: &mut Simulation<Worker>,
    peer: NodeId,
    late: NodeId,
    msg: SyncMsg,
) -> Vec<(NodeId, WorkerMsg)> {
    let mut out = Outbox::new();
    sim.node_mut(peer)
        .on_message(late, WorkerMsg::Sync(msg), &mut out);
    out.drain()
        .filter_map(|a| match a {
            Action::Send { to, msg } if to == late => Some((peer, msg)),
            _ => None,
        })
        .collect()
}

/// A lying peer: replies with in-protocol but *forged* data — an inflated
/// tip, headers whose payload hash was tampered with (breaking the
/// proposer's signature), and garbage bodies. The requester's
/// header-chain verification and per-body merkle checks must reject all
/// of it and quarantine the liar, never splicing a forged byte.
fn lie(sim: &Simulation<Worker>, liar: NodeId, msg: &SyncMsg) -> Option<(NodeId, WorkerMsg)> {
    let truth = sim.node(NodeId(0)).chain();
    let reply = match *msg {
        SyncMsg::TipProbe { req } => SyncMsg::TipReply {
            req,
            definite: Round(truth.definite_len() as u64 + 1_000),
        },
        SyncMsg::GetHeaders { req, from, to } => {
            let headers = (from.0..to.0.min(truth.definite_len() as u64))
                .filter_map(|r| truth.get(Round(r)))
                .map(|e| {
                    let mut signed = e.signed_header.clone();
                    signed.header.payload_hash = Hash::default(); // breaks the signature
                    signed
                })
                .collect();
            SyncMsg::HeadersReply { req, from, headers }
        }
        SyncMsg::GetBlocks { req, from, to } => SyncMsg::BlocksReply {
            req,
            from,
            bodies: (from.0..to.0).map(|_| Vec::new()).collect(),
        },
        _ => return None,
    };
    Some((liar, WorkerMsg::Sync(reply)))
}

#[test]
fn randomized_fetch_schedules_reassemble_canonical_prefix() {
    const CASES: u64 = 12;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x5C00 + case);

        // Grow a canonical ledger on a fault-free 4-worker ring, then
        // freeze it as the serving side.
        let (workers, params) = worker_ring(4, 8, 7);
        let mut sim = Simulation::new(SimConfig::ideal().with_seed(case), workers);
        sim.run_for(ms(120 + rng.gen_below(120)));
        let target = sim.node(NodeId(0)).chain().definite_len();
        assert!(
            target > 30,
            "case {case}: canonical chain too short: {target}"
        );
        let canonical: Vec<Hash> = sim
            .node(NodeId(0))
            .chain()
            .entries()
            .iter()
            .take(target)
            .map(|e| hash_header(&e.signed_header.header))
            .collect();

        // A fresh late worker with a random range-split schedule, syncing
        // against the frozen ring through a hand-driven message pump that
        // shuffles, duplicates and (from one peer) forges replies.
        let late_id = NodeId(3);
        let crypto = SimKeyStore::generate(4, 7).shared();
        let mut late = Worker::new(late_id, WorkerId(0), params, crypto, Arc::new(AcceptAll));
        late.set_sync_batches(1 + rng.gen_below(7) as usize, 1 + rng.gen_below(5) as usize);
        late.begin_sync();
        let liar = NodeId(rng.gen_below(3) as u32);

        let mut out = Outbox::new();
        late.on_start(&mut out);
        let mut sync_timer: Option<TimerId> = None;
        for _pump in 0..10_000 {
            // Route the late worker's outbox: requests to peers (the liar
            // forges, the others serve), remember the armed sync timer.
            let mut inbox: Vec<(NodeId, WorkerMsg)> = Vec::new();
            for action in out.drain().collect::<Vec<_>>() {
                match action {
                    Action::Send {
                        to,
                        msg: WorkerMsg::Sync(m),
                    } => {
                        if to == liar {
                            inbox.extend(lie(&sim, liar, &m));
                        } else if to != late_id {
                            inbox.extend(serve(&mut sim, to, late_id, m));
                        }
                    }
                    Action::Broadcast {
                        msg: WorkerMsg::Sync(m),
                    } => {
                        for peer in 0..3u32 {
                            let peer = NodeId(peer);
                            if peer == liar {
                                inbox.extend(lie(&sim, liar, &m));
                            } else {
                                inbox.extend(serve(&mut sim, peer, late_id, m.clone()));
                            }
                        }
                    }
                    Action::SetTimer { id, .. } if id.decompose().0 == TIMER_SYNC => {
                        sync_timer = Some(id);
                    }
                    _ => {}
                }
            }
            if !late.is_syncing() {
                break;
            }
            if inbox.is_empty() {
                // Stalled (e.g. the liar ate the only in-flight request):
                // fire the sync timeout so the synchronizer retries against
                // an alternate peer.
                let timer = sync_timer
                    .take()
                    .expect("stalled sync must have a timer armed");
                late.on_timer(timer, &mut out);
                continue;
            }
            // Adversarial delivery: duplicate some replies, then shuffle.
            let dups: Vec<_> = inbox
                .iter()
                .filter(|_| rng.gen_below(4) == 0)
                .cloned()
                .collect();
            inbox.extend(dups);
            for i in (1..inbox.len()).rev() {
                inbox.swap(i, rng.gen_below(i as u64 + 1) as usize);
            }
            for (from, msg) in inbox {
                late.on_message(from, msg, &mut out);
            }
        }

        assert!(!late.is_syncing(), "case {case}: sync never completed");
        assert!(
            late.sync_rounds_fetched() >= target as u64,
            "case {case}: fetched {} of {target} rounds",
            late.sync_rounds_fetched()
        );
        // Byte-identical reassembly: every fetched header hashes like the
        // canonical one; the liar's forged headers and bodies never spliced.
        // (The last f+1 spliced rounds stay tentative by chain rules, so the
        // coverage check is on entries, not on the definite prefix.)
        let chain = late.chain();
        assert!(
            chain.len() >= target,
            "case {case}: {} < {target}",
            chain.len()
        );
        for (r, want) in canonical.iter().enumerate() {
            let got = hash_header(&chain.get(Round(r as u64)).unwrap().signed_header.header);
            assert_eq!(&got, want, "case {case}: round {r} diverged");
        }
    }
}
