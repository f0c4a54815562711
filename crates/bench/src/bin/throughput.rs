//! The persistent throughput benchmark: the repo's performance trajectory.
//!
//! Runs the hot-path protocols (FLO, HotStuff, PBFT) on all three runtimes
//! (sim, threads, tcp) with one mid-size configuration and appends the
//! resulting points — tps, bps, latency percentiles, and an
//! allocations-per-block proxy — as one labelled *run* to
//! `BENCH_throughput.json`. The file is the benchmark **trajectory**: every
//! PR that touches a hot path appends a run, so regressions and wins stay
//! visible in history instead of living only in PR descriptions.
//!
//! Besides the 3-system × 3-runtime grid, every run appends a
//! **crypto-threads sweep**: FLO on both real-time runtimes at pipeline
//! widths 1/2/4 with a crypto-heavy configuration (σ = 2048), which is the
//! cell where the parallel crypto pipeline (`ClusterBuilder::
//! crypto_threads`) earns its keep on multi-core hosts. Real-time grid and
//! sweep cells carry a light open-loop probe stream so their
//! `p50/p99_latency_secs` are real submit→commit numbers instead of 0.0.
//!
//! It also appends an **fsync-policy sweep**: FLO on the TCP runtime with a
//! durable store (`ClusterBuilder::with_store`) at `fsync=always`,
//! `fsync=every64` and `fsync=os` — the cost of the durable ledger on the
//! commit path, visible as the `durability` key on each point.
//!
//! Every run also carries a **catch-up row** (the `catch_up` key, kept
//! separate from `points`): FLO on the TCP runtime with one node joining
//! late and range-fetching a 5 000-round gap (300 in smoke mode) through
//! the state-sync sub-protocol — the blocks-per-second fetch bandwidth of
//! `docs/WIRE_FORMAT.md` §10, measured from the late node's restart to the
//! moment its ledger reaches the join round.
//!
//! Finally every run carries an **ingress section** (the `ingress` key):
//! three soak rows driving the `docs/WIRE_FORMAT.md` §11 client fleet
//! through a partition-heal + crash-recover on each runtime, plus one
//! overload row with shrunken admission budgets. The rows record the
//! client-visible SLO — accepted must equal committed (zero
//! accepted-then-lost; the binary exits nonzero otherwise), overload must
//! shed with typed refusals, and the sim soak must be byte-deterministic.
//!
//! Environment:
//!
//! * `FIRELEDGER_BENCH_LABEL` — label recorded on the run (default `dev`);
//! * `FIRELEDGER_BENCH_SMOKE=1` — short CI smoke durations;
//! * `FIRELEDGER_BENCH_FULL=1` — long-form durations;
//! * `FIRELEDGER_BENCH_OUT` — output path (default `BENCH_throughput.json`);
//! * `FIRELEDGER_BENCH_CRYPTO_THREADS` — pipeline width for the main grid
//!   (default 1; the simulator always runs inline regardless).
//!
//! Run with: `cargo run --release -p fireledger-bench --bin throughput`

// The counting allocator below is the one place the workspace needs
// `unsafe`: `GlobalAlloc` is an unsafe trait. The impl only forwards to
// `std::alloc::System` and bumps atomic counters.
use fireledger_bench::*;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Allocation counters maintained by [`CountingAllocator`].
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts every allocation and reallocation, then
/// delegates to the system allocator. The counters are the source of the
/// `allocs_per_block` proxy: runs execute sequentially, so the delta across
/// one run attributes its allocation traffic (protocol + runtime + harness)
/// to that run.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One measured cell of the system × runtime grid.
struct Point {
    system: System,
    runtime: &'static str,
    config: ExperimentConfig,
    report: RunReport,
    allocs: u64,
    alloc_bytes: u64,
}

impl Point {
    fn blocks(&self) -> u64 {
        self.report.per_node.iter().map(|d| d.blocks).sum()
    }

    fn txs(&self) -> u64 {
        self.report.per_node.iter().map(|d| d.txs).sum()
    }

    fn allocs_per_block(&self) -> f64 {
        self.allocs as f64 / self.blocks().max(1) as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"system\":\"{:?}\",\"runtime\":\"{}\",\"n\":{},\"workers\":{},",
                "\"batch\":{},\"tx_size\":{},\"crypto_threads\":{},",
                "\"durability\":\"{}\",\"duration_secs\":{:.4},",
                "\"tps\":{:.2},\"bps\":{:.2},",
                "\"p50_latency_secs\":{:.6},\"p99_latency_secs\":{:.6},",
                "\"blocks\":{},\"txs\":{},",
                "\"allocs\":{},\"alloc_bytes\":{},\"allocs_per_block\":{:.1}}}"
            ),
            self.system,
            self.runtime,
            self.config.n,
            self.config.workers,
            self.config.batch,
            self.config.tx_size,
            self.config.crypto_threads,
            self.report.durability,
            self.report.duration_secs,
            self.report.tps,
            self.report.bps,
            self.report.p50_latency_secs,
            self.report.p99_latency_secs,
            self.blocks(),
            self.txs(),
            self.allocs,
            self.alloc_bytes,
            self.allocs_per_block(),
        )
    }
}

fn measure<R: Runtime>(cfg: &ExperimentConfig, runtime: &R) -> Point {
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let (result, _deliveries) = cfg.run_full_on(runtime, None);
    Point {
        system: cfg.system,
        runtime: runtime.name(),
        config: cfg.clone(),
        report: result.report,
        allocs: ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before,
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before,
    }
}

/// Splices `run_json` into an existing trajectory file, or starts a fresh
/// one. The file layout is fixed — a `runs` array of one-line run objects —
/// so appending is a literal text splice before the closing `\n]\n}`.
fn append_run(path: &str, run_json: &str) -> std::io::Result<()> {
    const HEAD: &str = "{\n\"schema_version\": 1,\n\"bench\": \"throughput\",\n\"runs\": [\n";
    const TAIL: &str = "\n]\n}\n";
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) if existing.starts_with(HEAD) && existing.ends_with(TAIL) => {
            let body = &existing[HEAD.len()..existing.len() - TAIL.len()];
            format!("{HEAD}{body},\n{run_json}{TAIL}")
        }
        Ok(_) => {
            eprintln!("warning: {path} is not a throughput trajectory; rewriting it");
            format!("{HEAD}{run_json}{TAIL}")
        }
        Err(_) => format!("{HEAD}{run_json}{TAIL}"),
    };
    std::fs::write(path, merged)
}

fn main() {
    banner("throughput trajectory", "§7.2 (single-DC throughput)");
    let label = std::env::var("FIRELEDGER_BENCH_LABEL").unwrap_or_else(|_| "dev".to_string());
    let out_path = std::env::var("FIRELEDGER_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_throughput.json".to_string());
    let smoke = std::env::var("FIRELEDGER_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let (mode, duration) = if smoke {
        ("smoke", Duration::from_millis(400))
    } else if full_mode() {
        ("full", Duration::from_millis(4000))
    } else {
        ("quick", Duration::from_millis(1500))
    };

    let crypto_threads: usize = std::env::var("FIRELEDGER_BENCH_CRYPTO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    // Probe stream for the real-time cells: light enough to leave the
    // saturated throughput untouched (hundreds of tx/s against hundreds of
    // thousands), dense enough for stable latency percentiles.
    const PROBE_RATE: f64 = 300.0;

    let emit = |p: &Point| {
        println!(
            "{:<9} {:<8} k={} | tps={:>9.0} bps={:>7.1} p50={:>8.5}s p99={:>8.5}s blocks={:>6} allocs/block={:>8.0}",
            format!("{:?}", p.system),
            p.runtime,
            p.config.crypto_threads,
            p.report.tps,
            p.report.bps,
            p.report.p50_latency_secs,
            p.report.p99_latency_secs,
            p.blocks(),
            p.allocs_per_block(),
        );
    };

    // One mid-size fast-path configuration: 4 nodes, 2 FLO workers,
    // β = 100 transactions of σ = 512 bytes. The pinned base timeout keeps
    // real-time runs on the optimistic path (no wall-clock view changes),
    // so the grid measures steady-state throughput, not timeout tuning.
    // The simulator cell keeps the exact saturated workload (and an inline
    // pipeline) so its rows stay byte-identical across sweeps — that
    // invariance is the determinism check the trajectory carries.
    let systems = [System::Flo, System::HotStuff, System::Pbft];
    let mut points = Vec::new();
    for system in systems {
        let cfg = ExperimentConfig::flo(4, 2, 100, 512)
            .system(system)
            .with_base_timeout(Duration::from_millis(250))
            .duration(duration);
        let rt_cfg = cfg
            .clone()
            .with_crypto_threads(crypto_threads)
            .with_probe_rate(PROBE_RATE);
        let sim = measure(&cfg, &Simulator);
        let threads = measure(&rt_cfg, &Threads);
        let tcp = measure(&rt_cfg, &Tcp);
        for p in [sim, threads, tcp] {
            emit(&p);
            points.push(p);
        }
    }

    // The crypto-threads sweep: FLO on both real-time runtimes at pipeline
    // widths 1/2/4, with big σ = 2048 transactions so block-body hashing
    // dominates — the cell where off-loop batch verification and parallel
    // merkle pay. (On a single-core host the pool clamps to inline and the
    // sweep shows a flat profile; the points still pin that the pipeline
    // never *costs* throughput.)
    for threads in [1usize, 2, 4] {
        let cfg = ExperimentConfig::flo(4, 2, 100, 2048)
            .with_base_timeout(Duration::from_millis(250))
            .duration(duration)
            .with_crypto_threads(threads)
            .with_probe_rate(PROBE_RATE);
        for p in [measure(&cfg, &Threads), measure(&cfg, &Tcp)] {
            emit(&p);
            points.push(p);
        }
    }

    // The fsync-policy sweep: FLO on the TCP runtime with every node
    // persisting through a durable store (segmented block log + consensus
    // WAL), at the three sync policies. The spread between `fsync-always`
    // and the other two rows is the price of per-record fdatasync on the
    // commit path; `fsync-every64` is the recommended middle ground. Only
    // the real-time TCP cell runs durable — the simulator rows above stay
    // store-free so they remain byte-identical across sweeps.
    for policy in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(64),
        FsyncPolicy::OsDefault,
    ] {
        let dir = std::env::temp_dir().join(format!(
            "fl-bench-store-{}-{}",
            std::process::id(),
            policy.label()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ExperimentConfig::flo(4, 2, 100, 512)
            .with_base_timeout(Duration::from_millis(250))
            .duration(duration)
            .with_crypto_threads(crypto_threads)
            .with_probe_rate(PROBE_RATE)
            .with_store(&dir, policy);
        let p = measure(&cfg, &Tcp);
        emit(&p);
        points.push(p);
        std::fs::remove_dir_all(&dir).ok();
    }

    // The catch-up row: FLO on the TCP runtime with one node joining late.
    // It spawns dormant, the other three grow the ledger to the join round,
    // then it restarts and range-fetches the entire missed prefix through
    // the state-sync sub-protocol (`SyncMsg` over real sockets,
    // header-verify before bodies — WIRE_FORMAT.md §10). The recorded rate
    // is blocks fetched per wall-clock second over exactly the fetch
    // window, not the live tail afterwards. Small blocks (β = 8, σ = 64)
    // and a short base timeout keep the *growth* phase quick so the row
    // measures fetch bandwidth, not how long three nodes take to produce
    // the gap.
    let gap: u64 = if smoke { 300 } else { 5_000 };
    let catch_params = ProtocolParams::new(4)
        .with_workers(1)
        .with_batch_size(8)
        .with_tx_size(64)
        .with_base_timeout(Duration::from_millis(20));
    let catch_builder = ClusterBuilder::<FloCluster>::new(catch_params)
        .with_seed(7)
        .with_late_join(NodeId(3), gap);
    let deadline = Duration::from_secs(if smoke { 60 } else { 180 });
    let catch_up = match Tcp.measure_catch_up(&catch_builder, deadline) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: catch-up measurement failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "catch-up  tcp      Flo | gap={} rounds fetched in {:.3}s = {:>7.0} blocks/s",
        catch_up.gap_rounds,
        catch_up.fetch_secs,
        catch_up.blocks_per_sec(),
    );
    let catch_json = format!(
        "{{\"system\":\"Flo\",\"runtime\":\"tcp\",\"gap_rounds\":{},\"fetch_secs\":{:.4},\"blocks_per_sec\":{:.1}}}",
        catch_up.gap_rounds,
        catch_up.fetch_secs,
        catch_up.blocks_per_sec(),
    );

    // The ingress section: the client-facing SLO rows of the trajectory.
    //
    // Three **soak** rows (sim / threads / tcp) run the §11 client fleet
    // through a partition-heal plus a crash-recover — the supported fault
    // shapes — and record the admission outcome: accepted vs. committed
    // (must balance: zero accepted-then-lost), typed sheds, and per-lane
    // submit→commit percentiles. One **overload** row (sim) shrinks the
    // admission budgets until the gates must shed, pinning that overload
    // produces typed refusals, not loss. The sim soak runs twice and the
    // two ingress sections must be byte-identical — the determinism check
    // this section carries, mirroring the grid's byte-identical sim rows.
    let soak_cluster = || {
        ClusterBuilder::<FloCluster>::new(
            ProtocolParams::new(4)
                .with_workers(1)
                .with_batch_size(8)
                .with_tx_size(64)
                .with_base_timeout(Duration::from_millis(20))
                .with_fill_blocks(false),
        )
        .with_seed(23)
    };
    let soak_scenario = Scenario::new("ingress-soak")
        .ideal()
        .with_faults(
            fireledger_runtime::catalog::partition_heal(
                4,
                Duration::from_millis(300),
                Duration::from_millis(600),
            )
            .crash_recover(
                NodeId(3),
                Duration::from_millis(800),
                Duration::from_millis(1100),
            ),
        )
        .run_for(Duration::from_millis(1600))
        .with_warmup(Duration::ZERO)
        .with_seed(23)
        .with_ingress(
            IngressLoad::new(8, Duration::from_millis(10), 64)
                .with_drain(Duration::from_millis(400)),
        );
    let ingress_row = |runtime: &str, scenario: &str, ing: &IngressReport| {
        println!(
            "ingress   {runtime:<8} {scenario:<15} | accepted={:>5} committed={:>5} lost={} shed={:>4} retries={:>4} p99={:.4}s",
            ing.accepted(),
            ing.committed(),
            ing.lost(),
            ing.shed(),
            ing.retries,
            ing.lanes
                .iter()
                .map(|l| l.p99_latency_secs)
                .fold(0.0, f64::max),
        );
        if ing.lost() > 0 {
            eprintln!("error: accepted-then-lost on {runtime}/{scenario}: {ing:?}");
            std::process::exit(1);
        }
        format!(
            "{{\"runtime\":\"{runtime}\",\"scenario\":\"{scenario}\",\"report\":{}}}",
            ing.to_json()
        )
    };
    let soak_sim = Simulator
        .run(&soak_cluster(), &soak_scenario)
        .expect("ingress soak (sim)");
    let soak_sim_again = Simulator
        .run(&soak_cluster(), &soak_scenario)
        .expect("ingress soak (sim, determinism re-run)");
    if soak_sim.ingress.to_json() != soak_sim_again.ingress.to_json() {
        eprintln!("error: sim ingress soak is not byte-deterministic");
        std::process::exit(1);
    }
    let soak_threads = Threads
        .run(&soak_cluster(), &soak_scenario)
        .expect("ingress soak (threads)");
    let soak_tcp = Tcp
        .run(&soak_cluster(), &soak_scenario)
        .expect("ingress soak (tcp)");
    // Overload goes through the bench-level API (`ExperimentConfig::
    // with_ingress`): tiny admission budgets against an aggressive fleet.
    let admission = fireledger::AdmissionConfig {
        capacity: 4,
        rate_per_sec: 100,
        burst: 8,
        ..Default::default()
    };
    let overload = ExperimentConfig::flo(4, 1, 8, 64)
        .ideal()
        .with_base_timeout(Duration::from_millis(20))
        .duration(Duration::from_millis(900))
        .with_ingress(
            IngressLoad::new(32, Duration::from_millis(2), 64)
                .with_admission(admission)
                .with_max_retries(2),
        )
        .run_on(&Simulator, None);
    if overload.report.ingress.shed() == 0 {
        eprintln!(
            "error: overload row shed nothing: {:?}",
            overload.report.ingress
        );
        std::process::exit(1);
    }
    let soak_rows = [
        ingress_row("sim", "ingress-soak", &soak_sim.ingress),
        ingress_row("threads", "ingress-soak", &soak_threads.ingress),
        ingress_row("tcp", "ingress-soak", &soak_tcp.ingress),
    ];
    let overload_row = ingress_row("sim", "ingress-overload", &overload.report.ingress);
    let ingress_json = format!(
        "{{\"soak\":[{}],\"overload\":{overload_row}}}",
        soak_rows.join(",")
    );

    // The execution section: the pipelined execution engine's
    // executed-transitions/s rows. FLO runs saturated with *executable*
    // filler (deterministic §12.1 op payloads) and the execution engine
    // enabled, under two workload shapes: `disjoint` (conflict 0% — every
    // conflict component is a single op, the partitioned apply's best case)
    // and `conflict50` (half the ops land on a 4-entry hot key set). Each
    // row records the report's `execution` section — executed blocks/txs,
    // applied transitions, transitions/s, receipt histogram, and the root
    // cross-check counters, which must show zero mismatches. The sim cell
    // runs twice and must serialize byte-identically — execution rides the
    // deterministic slicing, so any divergence is an engine bug.
    let exec_cluster = |conflict_pct: u8| {
        // batch 64 keeps blocks above the partitioned apply's serial
        // threshold, so the conflict knob actually changes the component
        // structure the executor sees.
        ClusterBuilder::<FloCluster>::new(
            ProtocolParams::new(4)
                .with_workers(2)
                .with_batch_size(64)
                .with_tx_size(64)
                .with_base_timeout(Duration::from_millis(250))
                .with_fill_ops(FillOps {
                    accounts: 64,
                    conflict_pct,
                }),
        )
        .with_seed(29)
        .with_execution(ExecConfig::with_genesis(64, 1_000_000))
    };
    let exec_scenario = Scenario::new("exec-throughput")
        .ideal()
        .run_for(duration.min(Duration::from_millis(900)))
        .with_warmup(Duration::ZERO)
        .with_seed(29);
    let exec_row = |runtime: &str, workload: &str, report: &RunReport| {
        let e = &report.execution;
        println!(
            "execution {runtime:<8} {workload:<10} | transitions/s={:>9.0} applied={:>7} blocks={:>6} root_checks={:>5} mismatches={}",
            e.transitions_per_sec, e.applied_transitions, e.executed_blocks,
            e.root_checks, e.root_mismatches,
        );
        if !e.enabled || e.applied_transitions == 0 || e.root_checks == 0 {
            eprintln!("error: execution row {runtime}/{workload} measured nothing: {e:?}");
            std::process::exit(1);
        }
        if e.root_mismatches > 0 {
            eprintln!("error: execution root mismatches on {runtime}/{workload}: {e:?}");
            std::process::exit(1);
        }
        format!(
            "{{\"runtime\":\"{runtime}\",\"workload\":\"{workload}\",\"report\":{}}}",
            e.to_json()
        )
    };
    let mut exec_rows = Vec::new();
    for (workload, conflict_pct) in [("disjoint", 0u8), ("conflict50", 50u8)] {
        let sim = Simulator
            .run(&exec_cluster(conflict_pct), &exec_scenario)
            .expect("execution row (sim)");
        let sim_again = Simulator
            .run(&exec_cluster(conflict_pct), &exec_scenario)
            .expect("execution row (sim, determinism re-run)");
        if sim.execution.to_json() != sim_again.execution.to_json() {
            eprintln!("error: sim execution row '{workload}' is not byte-deterministic");
            std::process::exit(1);
        }
        let threads = Threads
            .run(&exec_cluster(conflict_pct), &exec_scenario)
            .expect("execution row (threads)");
        let tcp = Tcp
            .run(&exec_cluster(conflict_pct), &exec_scenario)
            .expect("execution row (tcp)");
        exec_rows.push(exec_row("sim", workload, &sim));
        exec_rows.push(exec_row("threads", workload, &threads));
        exec_rows.push(exec_row("tcp", workload, &tcp));
    }
    let execution_json = format!("[{}]", exec_rows.join(","));

    // The reactor n-sweep (the `scale` key, PR 10): FLO on the TCP runtime
    // at growing cluster sizes. The reactor spends n node threads plus a
    // fixed pool; each row records the cluster's *measured* thread count
    // (the report's `threads` key, snapshotted before shutdown) next to its
    // throughput. The thread-per-peer engine the reactor replaced
    // (n + 2·n·(n−1) threads) is gone; its rows are pr10's in
    // BENCH_throughput.json.
    let scale_ns: &[usize] = if smoke {
        &[4, 8, 16]
    } else if full_mode() {
        &[4, 8, 16, 32, 64]
    } else {
        &[4, 8, 16, 32]
    };
    let scale_dur = if smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_millis(800)
    };
    let mut scale_rows = Vec::new();
    for &n in scale_ns {
        // The first committed rounds take visibly longer at n = 64 (an
        // all-to-all mesh of 4 032 sockets warming up); give the largest
        // cell enough wall clock to get past them.
        let dur = if n >= 64 {
            Duration::from_millis(3000)
        } else {
            scale_dur
        };
        let report = ExperimentConfig::flo(n, 1, 50, 256)
            .with_base_timeout(Duration::from_millis(500))
            .duration(dur)
            .run_on(&Tcp, None)
            .report;
        // The acceptance gate of the sweep: the reactor's thread count is
        // O(n) — the n node loops plus the fixed pool, nothing per-socket.
        if report.threads != n + DEFAULT_REACTOR_THREADS {
            eprintln!(
                "error: reactor n={n} ran {} threads, expected {}",
                report.threads,
                n + DEFAULT_REACTOR_THREADS
            );
            std::process::exit(1);
        }
        if report.tps <= 0.0 {
            eprintln!("error: reactor n={n} produced no throughput");
            std::process::exit(1);
        }
        println!(
            "scale     tcp      Flo | n={n:<3} engine=reactor         threads={:>5} tps={:>9.0} bps={:>7.1}",
            report.threads, report.tps, report.bps,
        );
        scale_rows.push(format!(
            concat!(
                "{{\"system\":\"Flo\",\"runtime\":\"tcp\",\"engine\":\"reactor\",\"n\":{},",
                "\"threads\":{},\"tps\":{:.2},\"bps\":{:.2},\"duration_secs\":{:.4}}}"
            ),
            n, report.threads, report.tps, report.bps, report.duration_secs,
        ));
    }
    let scale_json = format!("[{}]", scale_rows.join(","));

    // The geo-latency profile (the `geo` key, PR 10): FLO on the TCP
    // runtime with the simulator's AWS inter-region latency matrix injected
    // through the delay-line interceptor — every pair of the 10 regions
    // gets its one-way latency as a constant link delay, so real sockets
    // experience the §7.5 geo topology. The open-loop probe stream gives
    // the row real submit→commit percentiles, which must clear the injected
    // one-way latencies by construction.
    let geo_matrix = fireledger_sim::GeoMatrix::aws_default();
    let geo_n = 10usize;
    let mut geo_plan = FaultPlan::named("geo-aws");
    for a in 0..geo_n as u32 {
        for b in (a + 1)..geo_n as u32 {
            let lat = geo_matrix.latency(NodeId(a), NodeId(b));
            geo_plan = geo_plan.delay(
                LinkSelector::Between(NodeId(a), NodeId(b)),
                FaultWindow::ALWAYS,
                lat,
                lat,
            );
        }
    }
    let geo_scenario = Scenario::new("geo-aws")
        .geo()
        .open_loop(50.0, 256)
        .run_for(if smoke {
            Duration::from_millis(1200)
        } else {
            Duration::from_millis(3000)
        })
        .with_warmup(Duration::ZERO)
        .with_seed(11)
        .with_faults(geo_plan);
    let geo_builder = ClusterBuilder::<FloCluster>::new(
        ProtocolParams::new(geo_n)
            .with_workers(1)
            .with_batch_size(50)
            .with_tx_size(256)
            .with_base_timeout(Duration::from_secs(1)),
    )
    .with_seed(11);
    let geo_report = Tcp.run(&geo_builder, &geo_scenario).expect("geo row (tcp)");
    if geo_report.tps <= 0.0 {
        eprintln!("error: geo row produced no throughput");
        std::process::exit(1);
    }
    println!(
        "geo       tcp      Flo | n={geo_n} threads={:>4} tps={:>9.0} p50={:.4}s p99={:.4}s",
        geo_report.threads,
        geo_report.tps,
        geo_report.p50_latency_secs,
        geo_report.p99_latency_secs,
    );
    let geo_json = format!(
        concat!(
            "{{\"system\":\"Flo\",\"runtime\":\"tcp\",\"n\":{},\"network\":\"geo-aws\",",
            "\"threads\":{},\"tps\":{:.2},\"bps\":{:.2},",
            "\"p50_latency_secs\":{:.6},\"p99_latency_secs\":{:.6},\"duration_secs\":{:.4}}}"
        ),
        geo_n,
        geo_report.threads,
        geo_report.tps,
        geo_report.bps,
        geo_report.p50_latency_secs,
        geo_report.p99_latency_secs,
        geo_report.duration_secs,
    );

    let point_rows: Vec<String> = points.iter().map(Point::to_json).collect();
    let run_json = format!(
        "{{\"label\":\"{label}\",\"mode\":\"{mode}\",\"points\":[{}],\"catch_up\":{catch_json},\"ingress\":{ingress_json},\"execution\":{execution_json},\"scale\":{scale_json},\"geo\":{geo_json}}}",
        point_rows.join(",")
    );
    println!("JSON: {run_json}");
    match append_run(&out_path, &run_json) {
        Ok(()) => println!("\nappended run '{label}' ({mode}) to {out_path}"),
        Err(e) => {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
