//! One benchmark run: one workload, one seed. A warm-up segment (discarded)
//! and a few measured segments on real sockets, each a fresh cluster; with
//! `--trace 1` one measured segment fewer and the single-threaded loop
//! after them. A metric is the median of the measured segments.

use crate::loopback::{self, LoopRun};
use crate::metrics::Values;
use crate::procfs;
use crate::segment::{self, Measured, Plan};
use crate::spans::{self, Aggregate};
use crate::stats::{median, percentile, percentile_with_failures, Summary};
use crate::workload::Workload;
use fireledger::{AdmissionConfig, IngressGate};
use fireledger_crypto::{CryptoPool, SimKeyStore};
use fireledger_exec::StateMachine;
use fireledger_types::rpc::{Lane, RpcMsg};
use fireledger_types::DetRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Measured segments of an end-to-end run, and of a traced run (which gives
/// the third segment's time to the loop).
const SEGMENTS: usize = 3;
const SEGMENTS_TRACED: usize = 2;

/// Share of `--seconds` the warm-up segment's load takes; each measured
/// segment of an end-to-end run takes a third of the rest.
const WARMUP_SHARE: f64 = 0.1;

/// Share of a segment's load that is ramp, outside the window.
const RAMP_SHARE: f64 = 1.0 / 6.0;

/// How far into the window the crash of `crash-n4` lands (and the
/// `service_gap_ms` interval of every workload opens).
const CRASH_SHARE_OF_WINDOW: f64 = 0.3;

/// Clusters set up and taken straight down before the segments, so that
/// `setup_s` is the median of twelve set-ups (eleven in a traced run).
const EXTRA_SETUPS: usize = 8;

/// How long after its last submission a segment's cluster keeps running so
/// the tail can commit.
const GRACE: Duration = Duration::from_millis(500);

/// Least time a segment must leave between its crash and its shutdown.
const MIN_ROOM_AFTER_CRASH: Duration = Duration::from_millis(1200);

/// Generator lateness (p99) above which a run is refused: the load was not
/// the load that was scheduled. A generator that cannot keep up falls behind
/// without bound, so the limit sits well above the hiccups of a saturated
/// host (1–3 ms typically, ~10 ms in a bad segment) and far below a backlog.
const MAX_LATENESS_P99_MS: f64 = 50.0;

/// The segment plan for a load of `secs` seconds.
pub fn plan(secs: f64) -> Plan {
    let ramp = secs * RAMP_SHARE;
    let window = secs - ramp;
    Plan {
        ramp: Duration::from_secs_f64(ramp),
        window: Duration::from_secs_f64(window),
        grace: GRACE,
        crash_at: Duration::from_secs_f64(ramp + window * CRASH_SHARE_OF_WINDOW),
    }
}

/// What a run produced.
pub struct Output {
    pub values: Values,
    /// Submissions due inside the measured windows, and how many failed.
    pub attempted: usize,
    pub failed: usize,
}

fn summarize(segments: &[Measured], f: impl Fn(&Measured) -> f64) -> Summary {
    Summary::of(&segments.iter().map(f).collect::<Vec<_>>())
}

/// A latency percentile over the pooled submissions of all `measured`
/// windows (a failed one missing every percentile), with the per-segment
/// extremes beside it. Pooling, not the median of per-segment percentiles:
/// after a crash a segment lands in one of two tail regimes, and a median of
/// three flips between them where the pooled sample moves by thirds.
fn pooled_latency(measured: &[Measured], pct: f64) -> Summary {
    let mut pooled: Vec<f64> = measured
        .iter()
        .flat_map(|m| &m.latency_ms)
        .copied()
        .collect();
    pooled.sort_by(f64::total_cmp);
    let failed = measured.iter().map(|m| m.failed).sum();
    let per_segment = summarize(measured, |m| {
        m.latency_percentile(pct).unwrap_or(f64::INFINITY)
    });
    Summary {
        value: percentile_with_failures(&pooled, failed, pct).unwrap_or(f64::INFINITY),
        ..per_segment
    }
}

/// The metrics of the real-socket segments: `measured` excludes the warm-up,
/// `setups` is every set-up time the run took.
fn socket_values(setups: &[f64], measured: &[Measured]) -> Values {
    let mut v = Values::default();
    let share = |count: usize, m: &Measured| count as f64 / m.due.max(1) as f64;
    let of = |s: &[f64], pct: f64| percentile(s, pct).unwrap_or(0.0);
    v.set("tps", summarize(measured, |m| m.tps));
    v.set("commit_latency_p50_ms", pooled_latency(measured, 50.0));
    v.set("commit_latency_p95_ms", pooled_latency(measured, 95.0));
    v.set("cpu_us_per_tx", summarize(measured, |m| m.cpu_us_per_tx));
    v.set("setup_s", Summary::of(setups));
    v.set(
        "client.rpc_rtt_p50_us",
        summarize(measured, |m| of(&m.rtt_us, 50.0)),
    );
    v.set(
        "client.lateness_p99_ms",
        summarize(measured, |m| of(&m.lateness_ms, 99.0)),
    );
    v.set(
        "client.commit_latency_p99_ms",
        pooled_latency(measured, 99.0),
    );
    v.set(
        "client.refused_share",
        summarize(measured, |m| share(m.refused, m)),
    );
    v.set(
        "client.failed_share",
        summarize(measured, |m| share(m.failed, m)),
    );
    v.set("core.bps", summarize(measured, |m| m.bps));
    v.set("core.max_gap_ms", summarize(measured, |m| m.max_gap_ms));
    v.set(
        "core.service_gap_ms",
        summarize(measured, |m| m.service_gap_ms),
    );
    v.set("runtime.threads", summarize(measured, |m| m.threads));
    v.set(
        "process.cpu_us_per_block",
        summarize(measured, |m| m.cpu_us_per_block),
    );
    v.set(
        "process.cpu_cores_busy",
        summarize(measured, |m| m.cpu_cores_busy),
    );
    v.set(
        "process.rss_bytes_per_tx",
        summarize(measured, |m| m.rss_bytes_per_tx),
    );
    v.set(
        "process.ctx_switches_per_block",
        summarize(measured, |m| m.ctx_switches_per_block),
    );
    v.set(
        "store.disk_bytes_per_tx",
        summarize(measured, |m| m.disk_bytes_per_tx),
    );
    v.set("exec.tps", summarize(measured, |m| m.exec_tps));
    v.set(
        "exec.applied_share",
        summarize(measured, |m| m.exec_applied_share),
    );
    // A mismatch fails its segment before any metric is assembled.
    v.set("exec.root_mismatches", Summary::single(0.0));
    v.set(
        "process.peak_rss_mb",
        Summary::single(procfs::sample().peak_rss_bytes as f64 / (1024.0 * 1024.0)),
    );
    v
}

/// The metrics of the traced loop: `on` ran with spans, `off` without.
/// Everything is per block node 0 delivered.
fn loop_values(on: &LoopRun, off: &LoopRun) -> Values {
    let blocks = off.counts.blocks as f64;
    let agg: BTreeMap<&'static str, Aggregate> = spans::aggregate(&on.spans);
    let us = |ns: u64| ns as f64 / 1e3 / blocks;
    let total = |name: &str| us(agg.get(name).map_or(0, |a| a.total_ns));
    let own = |name: &str| us(agg.get(name).map_or(0, |a| a.self_ns));
    let per_block = |count: u64| Summary::single(count as f64 / blocks);
    let c = off.counts;
    let mut v = Values::default();
    v.set("types.encode_us", Summary::single(total("types.encode")));
    v.set("types.decode_us", Summary::single(total("types.decode")));
    v.set("types.wire_bytes", per_block(c.wire_bytes));
    v.set(
        "net.frame_write_us",
        Summary::single(total("net.frame_write")),
    );
    v.set(
        "net.frame_read_us",
        Summary::single(total("net.frame_read")),
    );
    v.set(
        "net.msgs",
        per_block(c.msgs_body + c.msgs_vote + c.msgs_other),
    );
    v.set("net.msgs_body", per_block(c.msgs_body));
    v.set("net.msgs_vote", per_block(c.msgs_vote));
    v.set("net.msgs_other", per_block(c.msgs_other));
    v.set("crypto.sign_us", Summary::single(total("crypto.sign")));
    v.set("crypto.verify_us", Summary::single(total("crypto.verify")));
    v.set("crypto.signs", per_block(c.signs));
    v.set("crypto.verifies", per_block(c.verifies));
    v.set("crypto.merkle_us", Summary::single(total("crypto.merkle")));
    let (body, vote, other) = (
        own("core.on_message.body"),
        own("core.on_message.vote"),
        own("core.on_message.other"),
    );
    v.set("core.on_message_us", Summary::single(body + vote + other));
    v.set("core.on_message_body_us", Summary::single(body));
    v.set("core.on_message_vote_us", Summary::single(vote));
    v.set("core.timer_fires", per_block(c.timer_fires));
    v.set("core.fallbacks", per_block(c.fallbacks));
    v.set(
        "store.append_us",
        Summary::single(total("store.append") + total("store.flush")),
    );
    v.set("store.bytes", per_block(c.store_bytes));
    v.set("exec.apply_us", Summary::single(total("exec.apply")));
    v.set("exec.root_us", Summary::single(total("exec.root")));
    // Protocol, codec and framing of all n nodes: the loop with spans off,
    // less node 0's application of its delivered blocks.
    v.set(
        "trace.cluster_us",
        Summary::single((off.wall - off.app).as_secs_f64() * 1e6 / blocks),
    );
    v.set(
        "trace.overhead_share",
        Summary::single(on.wall.as_secs_f64() / off.wall.as_secs_f64() - 1.0),
    );
    v
}

/// Standalone timings of single calls, medians of a few repetitions.
fn standalone_values(workload: &Workload) -> Values {
    const SUBMITS: u64 = 20_000;
    let gate = IngressGate::new(AdmissionConfig {
        capacity: SUBMITS as usize * 2,
        ..AdmissionConfig::default()
    });
    let msgs: Vec<RpcMsg> = (0..SUBMITS)
        .map(|seq| RpcMsg::Submit {
            client: 1 << 40,
            seq,
            lane: Lane::Normal,
            payload: vec![0u8; workload.tx_size],
        })
        .collect();
    let started = Instant::now();
    for (i, msg) in msgs.iter().enumerate() {
        std::hint::black_box(gate.handle(msg, i as u64 * 1_000));
    }
    let admission_us = started.elapsed().as_secs_f64() * 1e6 / SUBMITS as f64;

    let pool = CryptoPool::inline(SimKeyStore::generate(4, 0).shared());
    let root_us = |accounts: u64| {
        let state = StateMachine::with_genesis(accounts, 1);
        let (mut txs, mut hashes) = (Vec::new(), Vec::new());
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(state.root_with_pool(&pool, &mut txs, &mut hashes));
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&reps)
    };
    let mut v = Values::default();
    v.set(
        "core.admission_us_per_submit",
        Summary::single(admission_us),
    );
    v.set("exec.root_us_at_1k", Summary::single(root_us(1 << 10)));
    v.set("exec.root_us_at_64k", Summary::single(root_us(1 << 16)));
    v
}

/// Spans the dump holds at most (the aggregates cover all of them): about
/// 11 MB of CSV, every block of an n=4 loop and the first ~300 of n=16.
const MAX_DUMPED_SPANS: usize = 250_000;

/// Runs the traced loop with spans off, then on, writes the raw spans to
/// `spans_path`, and returns its metrics.
fn traced_loop(
    workload: &Workload,
    seed: u64,
    scratch_dir: &Path,
    spans_path: &Path,
) -> Result<Values, String> {
    let store_dir = scratch_dir.join("loop-store");
    let blocks = workload.loop_blocks;
    // A full-length discarded run first: the allocator keeps what a run
    // frees, so only the runs after the first start from the same heap.
    loopback::run(workload, seed, blocks, false, &store_dir)?;
    let off = loopback::run(workload, seed, blocks, false, &store_dir)?;
    let on = loopback::run(workload, seed, blocks, true, &store_dir)?;
    if on.counts != off.counts {
        return Err(format!(
            "the loop's counts changed between two runs of seed {seed}: {:?} vs {:?}",
            off.counts, on.counts
        ));
    }
    let dumped = &on.spans[..on.spans.len().min(MAX_DUMPED_SPANS)];
    let file =
        std::fs::File::create(spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    spans::write_csv(dumped, &mut std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!(
        "loop: {} blocks at node 0, {:.3} s with spans off, {:.3} s with spans on; {} spans, the first {} written to {}",
        off.counts.blocks,
        off.wall.as_secs_f64(),
        on.wall.as_secs_f64(),
        on.spans.len(),
        dumped.len(),
        spans_path.display()
    );
    for (name, a) in spans::aggregate(&on.spans) {
        println!(
            "span {name}: count {} total {:.3} ms self {:.3} ms",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        );
    }
    Ok(loop_values(&on, &off))
}

/// Runs `workload` once. `seconds` is the load time summed over the
/// warm-up and three measured segments; `scratch_dir` hosts the node stores
/// while a segment runs, `spans_path` takes a traced run's span dump.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch_dir: &Path,
    spans_path: &Path,
) -> Result<Output, String> {
    let conns = workload.n.min(procfs::available_parallelism());
    let warmup = plan(seconds * WARMUP_SHARE);
    let measured_plan = plan(seconds * (1.0 - WARMUP_SHARE) / SEGMENTS as f64);
    let segments = if trace { SEGMENTS_TRACED } else { SEGMENTS };
    // After a crash the survivors sit out one WRB timeout before they
    // deliver again; a segment must leave room for that and the catch-up.
    let room = warmup.load() - warmup.crash_at + GRACE;
    if workload.crash.is_some() && room < MIN_ROOM_AFTER_CRASH {
        return Err(format!(
            "{} needs a longer run: --seconds {seconds} leaves {:.2} s between the crash and the end of the \
             warm-up segment, and the no-service gap alone is ~0.45 s",
            workload.name,
            room.as_secs_f64()
        ));
    }
    println!(
        "workload {} seed {seed}: warm-up {:.2} s + {segments} x {:.2} s of load (ramp {:.2} s, window {:.2} s, \
         grace {:.2} s), {conns} client connections at {} tx/s, tracing {}",
        workload.name,
        warmup.load().as_secs_f64(),
        measured_plan.load().as_secs_f64(),
        measured_plan.ramp.as_secs_f64(),
        measured_plan.window.as_secs_f64(),
        GRACE.as_secs_f64(),
        workload.client_rate,
        if trace { "on (loop after the segments)" } else { "off" },
    );
    let mut seeds = DetRng::seed_from_u64(seed);
    let store_dir = scratch_dir.join("store");
    let mut setups = (0..EXTRA_SETUPS)
        .map(|_| segment::set_up_only(workload, seeds.next_u64(), conns, &store_dir))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut all = Vec::with_capacity(1 + segments);
    for index in 0..=segments {
        let plan = if index == 0 { warmup } else { measured_plan };
        let m = segment::run(workload, seeds.next_u64(), plan, conns, &store_dir)
            .map_err(|e| format!("segment {index}: {e}"))?;
        println!(
            "segment {index}{}: setup {:.3} s, {:.0} tx/s, {:.0} blocks/s, {} due, {} failed, latency p50 {:.2} ms \
             p95 {:.2} ms, longest gap {:.1} ms, lateness p99 {:.3} ms, {:.2} cores busy",
            if index == 0 { " (warm-up, discarded)" } else { "" },
            m.setup_s,
            m.tps,
            m.bps,
            m.due,
            m.failed,
            m.latency_percentile(50.0).unwrap_or(0.0),
            m.latency_percentile(95.0).unwrap_or(0.0),
            m.max_gap_ms,
            percentile(&m.lateness_ms, 99.0).unwrap_or(0.0),
            m.cpu_cores_busy,
        );
        setups.push(m.setup_s);
        all.push(m);
    }
    let measured = &all[1..];
    let mut values = socket_values(&setups, measured);
    let lateness = values
        .get("client.lateness_p99_ms")
        .map_or(0.0, |s| s.value);
    if lateness > MAX_LATENESS_P99_MS {
        return Err(format!(
            "the load generator ran {lateness:.2} ms late at p99 (limit {MAX_LATENESS_P99_MS} ms): \
             the cluster did not receive the scheduled load"
        ));
    }
    if trace {
        values.extend(traced_loop(workload, seed, scratch_dir, spans_path)?);
        values.extend(standalone_values(workload));
        let get = |name: &str| values.get(name).map_or(0.0, |s| s.value);
        // A real run stores and executes every block on every node; the
        // loop does it on node 0 only.
        let loop_us = get("trace.cluster_us")
            + workload.n as f64
                * (get("store.append_us") + get("exec.apply_us") + get("exec.root_us"));
        let share = 1.0 - loop_us / get("process.cpu_us_per_block").max(f64::MIN_POSITIVE);
        values.set("net.runtime_cpu_share", Summary::single(share));
    }
    Ok(Output {
        values,
        attempted: measured.iter().map(|m| m.due).sum(),
        failed: measured.iter().map(|m| m.failed).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_matches_the_documented_twenty_second_layout() {
        // --seconds 20: 2 s warm-up, then 6 s segments with a 1 s ramp, a
        // 5 s window and the crash 2.5 s in.
        let p = plan(20.0 * (1.0 - WARMUP_SHARE) / SEGMENTS as f64);
        let close = |d: Duration, s: f64| (d.as_secs_f64() - s).abs() < 1e-9;
        assert!(close(p.ramp, 1.0) && close(p.window, 5.0) && close(p.crash_at, 2.5));
        assert!(close(p.load(), 6.0));
        assert!(close(plan(20.0 * WARMUP_SHARE).load(), 2.0));
    }
}
