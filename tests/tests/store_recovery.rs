//! The durability acceptance suite: kill-9 restart-from-disk recovery.
//!
//! A `KillFault` destroys a node's **process state** — unlike the
//! pause-based crash-recover fault, nothing in memory survives — and the
//! restart rebuilds the node solely from its `fireledger-store` directory.
//! The assertions here are the guarantees docs/SCENARIOS.md documents for
//! the kill-restart catalog entry:
//!
//! * **Post-restart ledger identity (both runtimes)** — the restarted
//!   node's delivery log, rebuilt by replaying the block log, is
//!   prefix-identical to the untouched nodes' logs. Recovery never invents
//!   or reorders a block.
//! * **Damaged-media recovery** — a torn write or a flipped tail bit costs
//!   at most the damaged record: replay truncates to the longest valid
//!   prefix and the node rejoins from there.
//! * **Disk-full degradation** — a store that can no longer append keeps
//!   its persisted prefix readable, and the cluster stays live.
//!
//! Plus the randomized property pinning the replay rule itself: for *any*
//! garbage tail appended to a valid record sequence, recovery yields
//! exactly the valid prefix, and the store stays appendable afterwards.

use fireledger_runtime::catalog;
use fireledger_runtime::prelude::*;
use fireledger_store::{inject, FsyncPolicy as StorePolicy, NodeStore};
use fireledger_types::DetRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn params() -> ProtocolParams {
    ProtocolParams::new(4)
        .with_workers(1)
        .with_batch_size(8)
        .with_tx_size(64)
        .with_base_timeout(Duration::from_millis(250))
}

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// A unique, pre-cleaned store directory per call — tests run concurrently
/// in one process and must never share a ledger.
fn store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fl-recovery-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run_durable<R: Runtime>(
    runtime: &R,
    plan: FaultPlan,
    duration: Duration,
    dir: &PathBuf,
) -> (RunReport, Vec<Vec<Delivery>>) {
    let scenario = Scenario::new(format!("recovery-{}", plan.name))
        .ideal()
        .with_seed(7)
        .with_warmup(Duration::ZERO)
        .run_for(duration)
        .with_faults(plan);
    runtime
        .run_full(
            &ClusterBuilder::<FloCluster>::new(params())
                .with_seed(7)
                .with_store(dir, FsyncPolicy::EveryN(4)),
            &scenario,
        )
        .unwrap_or_else(|e| panic!("durable run failed on {}: {e}", runtime.name()))
}

/// The post-restart acceptance check: the killed node delivered a non-empty
/// ledger that is prefix-identical to an untouched node's — the prefix it
/// replayed from disk plus whatever it committed after rejoining.
fn assert_recovered_prefix(deliveries: &[Vec<Delivery>], killed: usize, context: &str) {
    let reference = &deliveries[(killed + 1) % deliveries.len()];
    let recovered = &deliveries[killed];
    assert!(
        !recovered.is_empty(),
        "{context}: the restarted node re-emitted nothing from its store"
    );
    assert!(
        !reference.is_empty(),
        "{context}: the untouched reference node delivered nothing"
    );
    let common = reference.len().min(recovered.len());
    assert_eq!(
        &recovered[..common],
        &reference[..common],
        "{context}: the restarted node's replayed ledger diverged"
    );
}

#[test]
fn kill_restart_rebuilds_the_ledger_from_disk_on_all_three_runtimes() {
    let plan = catalog::kill_restart_last(4, ms(300), ms(600));

    let dir = store_dir("kill-sim");
    let (report, deliveries) = run_durable(&Simulator, plan.clone(), ms(1200), &dir);
    assert_eq!(report.fault_plan, "kill-restart");
    assert_eq!(report.durability, "fsync-every4");
    assert_recovered_prefix(&deliveries, 3, "sim");
    std::fs::remove_dir_all(&dir).ok();

    let dir = store_dir("kill-tcp");
    let (report, deliveries) = run_durable(&Tcp, plan, ms(1200), &dir);
    assert_eq!(report.durability, "fsync-every4");
    assert_recovered_prefix(&deliveries, 3, "tcp");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-9 → fall hundreds of rounds behind → restart-from-disk →
/// range-fetch the gap. The cluster runs at a ~20ms round cadence while the
/// node is down for 1.2s, so its WAL tip is far behind the cluster tip on
/// restart; `recover_from_disk` enters state sync, fetches `[wal_tip,
/// cluster_tip)` and splices it onto the replayed prefix. The assertions
/// prove the splice: one prefix-identical ledger whose length is far beyond
/// anything the disk alone could have replayed.
#[test]
fn kill_fall_behind_restart_range_fetches_the_gap() {
    let fast = ProtocolParams::new(4)
        .with_workers(1)
        .with_batch_size(8)
        .with_tx_size(64)
        .with_base_timeout(ms(20));
    let plan = FaultPlan::named("kill-lag").kill_restart(NodeId(3), ms(200), ms(1400));
    for name in ["sim", "tcp"] {
        let dir = store_dir(&format!("kill-lag-{name}"));
        let scenario = Scenario::new("recovery-kill-lag")
            .ideal()
            .with_seed(7)
            .with_warmup(Duration::ZERO)
            .run_for(ms(2600))
            .with_faults(plan.clone());
        let builder = ClusterBuilder::<FloCluster>::new(fast.clone())
            .with_seed(7)
            .with_store(&dir, FsyncPolicy::EveryN(4));
        let (_, deliveries) = match name {
            "sim" => Simulator.run_full(&builder, &scenario),
            _ => Tcp.run_full(&builder, &scenario),
        }
        .unwrap_or_else(|e| panic!("kill-lag run failed on {name}: {e}"));

        assert_recovered_prefix(&deliveries, 3, name);
        let reference = &deliveries[0];
        let recovered = &deliveries[3];
        // The node was down for ~46% of the run; anything it replayed from
        // disk ends at its kill-time WAL tip (~8% of the run). Reaching the
        // neighbourhood of the reference ledger is only possible if the
        // missed range was fetched and spliced.
        assert!(
            reference.len() > 300,
            "{name}: cluster too slow to open a meaningful gap: {}",
            reference.len()
        );
        assert!(
            recovered.len() as f64 > reference.len() as f64 * 0.6,
            "{name}: restarted node never fetched its gap: {} of {} blocks",
            recovered.len(),
            reference.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn kill_without_restart_leaves_the_cluster_live_on_the_fallback() {
    // The dead node's proposer turns resolve through the β-fallback; its
    // store survives untouched on disk for a later (out-of-run) restart.
    let plan = FaultPlan::named("kill-dead").kill(NodeId(3), ms(300));
    let dir = store_dir("kill-dead");
    let (report, deliveries) = run_durable(&Simulator, plan, ms(1200), &dir);
    assert!(
        report.fallbacks > 0,
        "the dead proposer's turns must go through the fallback"
    );
    for (i, d) in deliveries.iter().enumerate().take(3) {
        assert!(d.len() > 3, "node {i} stalled after the kill: {}", d.len());
    }
    // The dead node's directory still replays: its pre-kill prefix is intact.
    let node_dir = dir.join("node-3");
    let (_, recovered) = NodeStore::open(&node_dir, StorePolicy::EveryN(4)).unwrap();
    assert!(
        !recovered.blocks.is_empty(),
        "the killed node's persisted ledger vanished"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_write_during_downtime_recovers_to_the_last_valid_record() {
    let plan = FaultPlan::named("kill-torn").kill_restart_injecting(
        NodeId(3),
        ms(300),
        ms(600),
        DiskFault::TornWrite { cut: 10 },
    );
    let dir = store_dir("torn");
    let (report, deliveries) = run_durable(&Simulator, plan.clone(), ms(1200), &dir);
    assert_eq!(report.fault_plan, "kill-torn");
    assert_recovered_prefix(&deliveries, 3, "sim/torn-write");
    std::fs::remove_dir_all(&dir).ok();

    // Same damage on a wall-clock runtime: the fault is applied to the real
    // segment files between the kill and the restart.
    let dir = store_dir("torn-tcp");
    let (_, deliveries) = run_durable(&Tcp, plan, ms(1200), &dir);
    assert_recovered_prefix(&deliveries, 3, "tcp/torn-write");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_tail_during_downtime_recovers_to_the_last_valid_record() {
    let plan = FaultPlan::named("kill-corrupt").kill_restart_injecting(
        NodeId(3),
        ms(300),
        ms(600),
        DiskFault::CorruptTail,
    );
    let dir = store_dir("corrupt");
    let (_, deliveries) = run_durable(&Simulator, plan.clone(), ms(1200), &dir);
    assert_recovered_prefix(&deliveries, 3, "sim/corrupt-tail");
    std::fs::remove_dir_all(&dir).ok();

    let dir = store_dir("corrupt-tcp");
    let (_, deliveries) = run_durable(&Tcp, plan, ms(1200), &dir);
    assert_recovered_prefix(&deliveries, 3, "tcp/corrupt-tail");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_full_after_restart_degrades_without_losing_the_prefix() {
    // The restarted node comes back with a nearly-exhausted write budget:
    // its store fails over to read-only once the budget runs out, the
    // already-persisted prefix stays replayable, and the *cluster* keeps
    // committing regardless.
    let plan = FaultPlan::named("kill-full").kill_restart_injecting(
        NodeId(3),
        ms(300),
        ms(600),
        DiskFault::DiskFull { after_bytes: 2048 },
    );
    let dir = store_dir("full");
    let (_, deliveries) = run_durable(&Simulator, plan, ms(1200), &dir);
    assert_recovered_prefix(&deliveries, 3, "sim/disk-full");
    for (i, d) in deliveries.iter().enumerate().take(3) {
        assert!(d.len() > 3, "node {i} stalled on a peer's full disk");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deterministic_simulator_reports_are_reproducible_with_a_store() {
    // Persistence must not leak nondeterminism into the simulator: two runs
    // over fresh directories serialize to byte-identical reports.
    let plan = catalog::kill_restart_last(4, ms(300), ms(600));
    let dir_a = store_dir("det-a");
    let (a, da) = run_durable(&Simulator, plan.clone(), ms(1000), &dir_a);
    std::fs::remove_dir_all(&dir_a).ok();
    let dir_b = store_dir("det-b");
    let (b, db) = run_durable(&Simulator, plan, ms(1000), &dir_b);
    std::fs::remove_dir_all(&dir_b).ok();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "store made the simulator nondeterministic"
    );
    assert_eq!(da, db, "store made deliveries nondeterministic");
}

/// The replay rule as a randomized property: write a random valid record
/// sequence, append an arbitrary garbage tail, and recovery must yield
/// **exactly** the valid prefix — never fewer records, never a record
/// conjured from the garbage — and the reopened store must accept and
/// persist further appends.
#[test]
fn corrupt_tail_replay_recovers_exactly_the_valid_prefix() {
    const CASES: u64 = 24;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xD15C + case);
        let dir = store_dir(&format!("prop-{case}"));

        // A random valid history: 1..=12 block records of random sizes.
        let count = 1 + rng.gen_below(12) as usize;
        let payloads: Vec<Vec<u8>> = (0..count)
            .map(|i| {
                let len = 1 + rng.gen_below(200) as usize;
                vec![(i as u8).wrapping_mul(17).wrapping_add(case as u8); len]
            })
            .collect();
        let (store, _) = NodeStore::open(&dir, StorePolicy::Always).unwrap();
        for p in &payloads {
            store.append_block(p.clone()).unwrap();
        }
        drop(store);

        // An arbitrary garbage tail glued straight onto the active segment:
        // random bytes, random length (possibly resembling a record header).
        let garbage_len = 1 + rng.gen_below(64) as usize;
        let garbage: Vec<u8> = (0..garbage_len).map(|_| rng.gen_below(256) as u8).collect();
        let active = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("blocks-") && n.ends_with(".log"))
            })
            .expect("active block segment exists");
        let mut bytes = std::fs::read(&active).unwrap();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&active, &bytes).unwrap();

        // Recovery: exactly the valid prefix, regardless of the garbage.
        let (store, recovered) = NodeStore::open(&dir, StorePolicy::Always).unwrap();
        assert_eq!(
            recovered.blocks.len(),
            payloads.len(),
            "case {case}: replay did not recover exactly the valid prefix"
        );
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&recovered.blocks[i].1, p, "case {case}: record {i} mutated");
        }

        // Re-append after recovery: the truncated log stays a valid log.
        store.append_block(vec![0xEE; 33]).unwrap();
        drop(store);
        let (_, again) = NodeStore::open(&dir, StorePolicy::Always).unwrap();
        assert_eq!(again.blocks.len(), payloads.len() + 1, "case {case}");
        assert_eq!(
            again.blocks.last().unwrap().1,
            vec![0xEE; 33],
            "case {case}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Torn-write inversion of the property: chopping bytes off the tail always
/// recovers a (possibly shorter) exact prefix of what was written.
#[test]
fn torn_write_replay_recovers_an_exact_prefix() {
    const CASES: u64 = 16;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x7042 + case);
        let dir = store_dir(&format!("torn-prop-{case}"));
        let count = 2 + rng.gen_below(8) as usize;
        let (store, _) = NodeStore::open(&dir, StorePolicy::Always).unwrap();
        for i in 0..count {
            store.append_block(vec![i as u8; 40]).unwrap();
        }
        drop(store);

        let cut = 1 + rng.gen_below(60);
        inject::torn_write(&dir, cut).unwrap();

        let (_, recovered) = NodeStore::open(&dir, StorePolicy::Always).unwrap();
        assert!(
            recovered.blocks.len() < count,
            "case {case}: a torn tail must cost at least the torn record"
        );
        for (i, rec) in recovered.blocks.iter().enumerate() {
            assert_eq!(rec.1, vec![i as u8; 40], "case {case}: prefix record {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
