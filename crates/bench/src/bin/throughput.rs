//! The simulator's throughput trajectory.
//!
//! Runs the hot-path protocols (FLO, HotStuff, BFT-SMaRt) on the
//! deterministic simulator with one mid-size configuration and appends the
//! resulting points — tps, bps, latency percentiles, the message, byte and
//! signature counts, and an allocations-per-block proxy — as one labelled
//! *run* to
//! `BENCH_throughput.json`. Simulated rows
//! are byte-identical across re-runs, so a change in them is a change in
//! the protocol's behaviour or its modelled cost, never host noise.
//!
//! Every run also carries an **ingress section** (the `ingress` key): a
//! soak row driving the `docs/WIRE_FORMAT.md` §11 client fleet through a
//! partition-heal + crash-recover, plus one overload row with shrunken
//! admission budgets. The soak must commit everything it accepted (the
//! binary exits nonzero otherwise) and run byte-deterministically twice;
//! overload must shed with typed refusals. An **execution section** (the
//! `execution` key) does the same for the pipelined execution engine under
//! a disjoint and a 50 %-conflict workload: zero root mismatches, identical
//! on re-run.
//!
//! Real-time numbers do not come from here: the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`) measures real sockets with repetitions
//! and bounded spread. The real-time keys of older runs in the file stay
//! as history.
//!
//! Environment:
//!
//! * `FIRELEDGER_BENCH_LABEL` — label recorded on the run (default `dev`);
//! * `FIRELEDGER_BENCH_SMOKE=1` — short CI smoke durations;
//! * `FIRELEDGER_BENCH_FULL=1` — long-form durations;
//! * `FIRELEDGER_BENCH_OUT` — output path (default `BENCH_throughput.json`).
//!   An existing file that is not a trajectory is an error, never
//!   overwritten.
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

/// One measured point of the system grid, on the simulator.
struct Point {
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
                "{{\"system\":\"{:?}\",\"runtime\":\"sim\",\"n\":{},\"workers\":{},",
                "\"batch\":{},\"tx_size\":{},\"duration_secs\":{:.4},",
                "\"tps\":{:.2},\"bps\":{:.2},",
                "\"p50_latency_secs\":{:.6},\"p99_latency_secs\":{:.6},",
                "\"blocks\":{},\"txs\":{},",
                "\"msgs_sent\":{},\"bytes_sent\":{},\"signatures\":{},\"verifications\":{},",
                "\"allocs\":{},\"alloc_bytes\":{},\"allocs_per_block\":{:.1}}}"
            ),
            self.config.system,
            self.config.n,
            self.config.workers,
            self.config.batch,
            self.config.tx_size,
            self.report.duration_secs,
            self.report.tps,
            self.report.bps,
            self.report.p50_latency_secs,
            self.report.p99_latency_secs,
            self.blocks(),
            self.txs(),
            self.report.msgs_sent,
            self.report.bytes_sent,
            self.report.signatures,
            self.report.verifications,
            self.allocs,
            self.alloc_bytes,
            self.allocs_per_block(),
        )
    }
}

fn measure(cfg: &ExperimentConfig) -> Point {
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let result = cfg.run();
    Point {
        config: result.config,
        report: result.report,
        allocs: ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before,
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before,
    }
}

/// Splices `run_json` into an existing trajectory file, or starts a fresh
/// one when there is no file. The file layout is fixed — a `runs` array of
/// one-line run objects — so appending is a literal text splice before the
/// closing `\n]\n}\n`. Any other file content (a lost trailing newline,
/// CRLF line endings, an unrelated file) is an `InvalidData` error and the
/// file is left untouched: rewriting it would erase the recorded history.
fn append_run(path: &str, run_json: &str) -> std::io::Result<()> {
    const HEAD: &str = "{\n\"schema_version\": 1,\n\"bench\": \"throughput\",\n\"runs\": [\n";
    const TAIL: &str = "\n]\n}\n";
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let body = existing
                .strip_prefix(HEAD)
                .and_then(|rest| rest.strip_suffix(TAIL))
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{path} is not a throughput trajectory; refusing to overwrite it"),
                    )
                })?;
            format!("{HEAD}{body},\n{run_json}{TAIL}")
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => format!("{HEAD}{run_json}{TAIL}"),
        Err(e) => return Err(e),
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

    // One mid-size fast-path configuration: 4 nodes, 2 FLO workers,
    // β = 100 transactions of σ = 512 bytes, saturated, with a pinned base
    // timeout and an inline crypto pipeline.
    let mut points = Vec::new();
    for system in [System::Flo, System::HotStuff, System::BftSmart] {
        let cfg = ExperimentConfig::flo(4, 2, 100, 512)
            .system(system)
            .with_base_timeout(Duration::from_millis(250))
            .duration(duration);
        let p = measure(&cfg);
        println!(
            "{:<9} sim      | tps={:>9.0} bps={:>7.1} p50={:>8.5}s p99={:>8.5}s blocks={:>6} allocs/block={:>8.0}",
            format!("{:?}", p.config.system),
            p.report.tps,
            p.report.bps,
            p.report.p50_latency_secs,
            p.report.p99_latency_secs,
            p.blocks(),
            p.allocs_per_block(),
        );
        points.push(p);
    }

    // The ingress section: the client-facing SLO rows of the trajectory.
    //
    // The **soak** row runs the §11 client fleet through a partition-heal
    // plus a crash-recover — the supported fault shapes — and records the
    // admission outcome: accepted vs. committed (must balance: zero
    // accepted-then-lost), typed sheds, and per-lane submit→commit
    // percentiles. The **overload** row shrinks the admission budgets until
    // the gates must shed, pinning that overload produces typed refusals,
    // not loss. The soak runs twice and the two ingress sections must be
    // byte-identical.
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
    let ingress_row = |scenario: &str, ing: &IngressReport| {
        println!(
            "ingress   sim      {scenario:<15} | accepted={:>5} committed={:>5} lost={} shed={:>4} retries={:>4} p99={:.4}s",
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
            eprintln!("error: accepted-then-lost on sim/{scenario}: {ing:?}");
            std::process::exit(1);
        }
        format!(
            "{{\"runtime\":\"sim\",\"scenario\":\"{scenario}\",\"report\":{}}}",
            ing.to_json()
        )
    };
    let soak = Simulator
        .run(&soak_cluster(), &soak_scenario)
        .expect("ingress soak");
    let soak_again = Simulator
        .run(&soak_cluster(), &soak_scenario)
        .expect("ingress soak (determinism re-run)");
    if soak.ingress.to_json() != soak_again.ingress.to_json() {
        eprintln!("error: sim ingress soak is not byte-deterministic");
        std::process::exit(1);
    }
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
        .run();
    if overload.report.ingress.shed() == 0 {
        eprintln!(
            "error: overload row shed nothing: {:?}",
            overload.report.ingress
        );
        std::process::exit(1);
    }
    let soak_row = ingress_row("ingress-soak", &soak.ingress);
    let overload_row = ingress_row("ingress-overload", &overload.report.ingress);
    let ingress_json = format!("{{\"soak\":[{soak_row}],\"overload\":{overload_row}}}");

    // The execution section: the pipelined execution engine's
    // executed-transitions/s rows. FLO runs saturated with *executable*
    // filler (deterministic §12.1 op payloads) and the execution engine
    // enabled, under two workload shapes: `disjoint` (conflict 0% — no two
    // ops touch the same account) and `conflict50` (half the ops land on a
    // 4-entry hot key set). Each
    // row records the report's `execution` section — executed blocks/txs,
    // applied transitions, transitions/s, receipt histogram, and the root
    // cross-check counters, which must show zero mismatches. Each row runs
    // twice and must serialize byte-identically — execution rides the
    // deterministic slicing, so any divergence is an engine bug.
    let exec_cluster = |conflict_pct: u8| {
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
    let mut exec_rows = Vec::new();
    for (workload, conflict_pct) in [("disjoint", 0u8), ("conflict50", 50u8)] {
        let report = Simulator
            .run(&exec_cluster(conflict_pct), &exec_scenario)
            .expect("execution row");
        let again = Simulator
            .run(&exec_cluster(conflict_pct), &exec_scenario)
            .expect("execution row (determinism re-run)");
        if report.execution.to_json() != again.execution.to_json() {
            eprintln!("error: sim execution row '{workload}' is not byte-deterministic");
            std::process::exit(1);
        }
        let e = &report.execution;
        println!(
            "execution sim      {workload:<10} | transitions/s={:>9.0} applied={:>7} blocks={:>6} root_checks={:>5} mismatches={}",
            e.transitions_per_sec, e.applied_transitions, e.executed_blocks,
            e.root_checks, e.root_mismatches,
        );
        if !e.enabled || e.applied_transitions == 0 || e.root_checks == 0 {
            eprintln!("error: execution row sim/{workload} measured nothing: {e:?}");
            std::process::exit(1);
        }
        if e.root_mismatches > 0 {
            eprintln!("error: execution root mismatches on sim/{workload}: {e:?}");
            std::process::exit(1);
        }
        exec_rows.push(format!(
            "{{\"runtime\":\"sim\",\"workload\":\"{workload}\",\"report\":{}}}",
            e.to_json()
        ));
    }
    let execution_json = format!("[{}]", exec_rows.join(","));

    let point_rows: Vec<String> = points.iter().map(Point::to_json).collect();
    let run_json = format!(
        "{{\"label\":\"{label}\",\"mode\":\"{mode}\",\"points\":[{}],\"ingress\":{ingress_json},\"execution\":{execution_json}}}",
        point_rows.join(",")
    );
    println!("JSON: {run_json}");
    match append_run(&out_path, &run_json) {
        Ok(()) => println!("\nappended run '{label}' ({mode}) to {out_path}"),
        Err(e) => {
            eprintln!("error: could not append to {out_path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::append_run;
    use std::path::PathBuf;

    const EMPTY_HEAD: &str = "{\n\"schema_version\": 1,\n\"bench\": \"throughput\",\n\"runs\": [\n";

    /// A fresh path in the temp directory, removed again on drop.
    struct TempFile(PathBuf);

    impl TempFile {
        fn new(name: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("fl-append-run-{}-{name}", std::process::id()));
            std::fs::remove_file(&path).ok();
            TempFile(path)
        }

        fn path(&self) -> &str {
            self.0.to_str().expect("temp path is UTF-8")
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn a_missing_file_starts_a_fresh_trajectory() {
        let file = TempFile::new("missing");
        append_run(file.path(), "{\"label\":\"a\"}").unwrap();
        assert_eq!(
            std::fs::read_to_string(file.path()).unwrap(),
            format!("{EMPTY_HEAD}{{\"label\":\"a\"}}\n]\n}}\n")
        );
    }

    #[test]
    fn an_existing_trajectory_gets_the_run_spliced_in() {
        let file = TempFile::new("splice");
        append_run(file.path(), "{\"label\":\"a\"}").unwrap();
        append_run(file.path(), "{\"label\":\"b\"}").unwrap();
        assert_eq!(
            std::fs::read_to_string(file.path()).unwrap(),
            format!("{EMPTY_HEAD}{{\"label\":\"a\"}},\n{{\"label\":\"b\"}}\n]\n}}\n")
        );
    }

    #[test]
    fn a_non_trajectory_file_is_an_error_and_stays_untouched() {
        let file = TempFile::new("foreign");
        // A trajectory whose trailing newline was lost, one with CRLF line
        // endings, and an unrelated file: all refused byte-for-byte.
        let crlf = format!("{EMPTY_HEAD}{{\"label\":\"a\"}}\n]\n}}\n").replace('\n', "\r\n");
        for original in [
            format!("{EMPTY_HEAD}{{\"label\":\"a\"}}\n]\n}}"),
            crlf,
            "not a trajectory".to_string(),
        ] {
            std::fs::write(&file.0, &original).unwrap();
            let err = append_run(file.path(), "{\"label\":\"b\"}").unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read_to_string(file.path()).unwrap(), original);
        }
    }
}
