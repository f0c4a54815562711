//! # fireledger-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! FireLedger paper's evaluation (§7). Each figure/table has its own binary
//! in `src/bin/`; this library holds the shared machinery, which is a thin
//! layer over `fireledger-runtime`: an [`ExperimentConfig`] is translated
//! into a `ClusterBuilder` + `Scenario` pair and executed on the
//! [`Simulator`] runtime. Results are emitted both as human-readable rows
//! and as machine-readable `JSON:` lines built from the unified
//! [`RunReport`]. Real-socket numbers come from the repo benchmark
//! (`benchmark/`), not from here.
//!
//! Absolute numbers depend on the simulator's calibration, not on the
//! authors' AWS testbed, so the quantities to compare against the paper are
//! the *shapes*: how throughput scales with n, ω, σ, β, who wins between
//! FLO, HotStuff and BFT-SMaRt, and where the trade-offs cross over.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod quickbench;

pub use fireledger_runtime::prelude::*;

use fireledger_crypto::CostModel;
use std::time::Duration;

/// Which protocol a run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// FLO / FireLedger.
    Flo,
    /// A single WRB/OBBC FireLedger instance (no FLO merge).
    Wrb,
    /// Chained HotStuff baseline.
    HotStuff,
    /// BFT-SMaRt-style ordering baseline.
    BftSmart,
}

impl System {
    /// Every protocol of the matrix.
    pub const ALL: [System; 4] = [System::Flo, System::Wrb, System::HotStuff, System::BftSmart];
}

/// One experiment configuration (a point of a parameter sweep).
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Protocol under test.
    pub system: System,
    /// Cluster size n.
    pub n: usize,
    /// FLO workers ω (ignored by the single-instance protocols).
    pub workers: usize,
    /// Batch size β.
    pub batch: usize,
    /// Transaction size σ in bytes.
    pub tx_size: usize,
    /// Human-readable network label ("single-dc" / "geo" / "ideal").
    pub network: String,
    /// Simulated run length in milliseconds.
    pub duration_ms: u64,
    /// Number of crashed nodes (crash at t = 0; measurement starts after).
    pub crashed: usize,
    /// Number of equivocating Byzantine nodes.
    pub byzantine: usize,
    /// RNG seed.
    pub seed: u64,
    /// Base-timeout override in milliseconds; `None` derives the timeout
    /// from the topology (the sweep binaries' behaviour).
    pub base_timeout_ms: Option<u64>,
    /// Client-RPC ingress load ([`Scenario::with_ingress`]): an open-loop
    /// fleet submitting through the §11 front end and admission gates, so
    /// the run's `RunReport` carries a populated `ingress` section
    /// (accepted/shed/lost counts, per-lane submit→commit percentiles).
    /// `None` — the default — runs without client ingress.
    pub ingress: Option<IngressLoad>,
}

impl ExperimentConfig {
    /// A FLO configuration with the paper's defaults.
    pub fn flo(n: usize, workers: usize, batch: usize, tx_size: usize) -> Self {
        ExperimentConfig {
            system: System::Flo,
            n,
            workers,
            batch,
            tx_size,
            network: "single-dc".into(),
            duration_ms: 2_000,
            crashed: 0,
            byzantine: 0,
            seed: 1,
            base_timeout_ms: None,
            ingress: None,
        }
    }

    /// Attaches an open-loop client-RPC ingress fleet to the run (see
    /// [`IngressLoad`]): `clients` closed-loop submitters with the given
    /// think time, retrying typed refusals with jittered backoff. The run's
    /// report then carries a populated `ingress` section.
    pub fn with_ingress(mut self, load: IngressLoad) -> Self {
        self.ingress = Some(load);
        self
    }

    /// Switches the run to the geo-distributed network model.
    pub fn geo(mut self) -> Self {
        self.network = "geo".into();
        self.duration_ms = self.duration_ms.max(5_000);
        self
    }

    /// Switches the run to the idealized network model (1 ms constant
    /// links, free CPU).
    pub fn ideal(mut self) -> Self {
        self.network = "ideal".into();
        self
    }

    /// Pins the protocols' base timeout instead of deriving it from the
    /// topology.
    pub fn with_base_timeout(mut self, timeout: Duration) -> Self {
        self.base_timeout_ms = Some(timeout.as_millis() as u64);
        self
    }

    /// Sets the simulated duration.
    pub fn duration(mut self, d: Duration) -> Self {
        self.duration_ms = d.as_millis() as u64;
        self
    }

    /// Uses a different protocol.
    pub fn system(mut self, system: System) -> Self {
        self.system = system;
        self
    }

    /// Crashes the last `crashed` nodes at the start of the run (one
    /// [`FaultPlan::crash`] each).
    pub fn with_crashes(mut self, crashed: usize) -> Self {
        self.crashed = crashed;
        self
    }

    /// Makes the last `byzantine` nodes equivocate on every block they
    /// propose (FLO only; the baselines reject Byzantine roles).
    pub fn with_byzantine(mut self, byzantine: usize) -> Self {
        self.byzantine = byzantine;
        self
    }

    /// The scenario this configuration describes.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::new(self.network.clone())
            .with_seed(self.seed)
            .run_for(Duration::from_millis(self.duration_ms));
        scenario = match self.network.as_str() {
            "geo" => scenario.geo(),
            "ideal" => scenario.ideal(),
            _ => scenario.single_dc(),
        };
        if self.crashed > 0 {
            let tail = self.n.saturating_sub(self.crashed)..self.n;
            let plan = tail.fold(FaultPlan::named("crash-last-f"), |plan, i| {
                plan.crash(NodeId(i as u32), Duration::ZERO)
            });
            scenario = scenario.with_faults(plan);
        }
        if let Some(load) = &self.ingress {
            scenario = scenario.with_ingress(load.clone());
        }
        scenario
    }

    /// The protocol parameters this configuration describes.
    pub fn protocol_params(&self) -> ProtocolParams {
        let timeout = self
            .base_timeout_ms
            .map(Duration::from_millis)
            .unwrap_or_else(|| self.scenario().recommended_timeout());
        ProtocolParams::new(self.n)
            .with_workers(self.workers)
            .with_batch_size(self.batch)
            .with_tx_size(self.tx_size)
            .with_base_timeout(timeout)
    }

    fn builder<P: ClusterProtocol>(&self) -> ClusterBuilder<P> {
        ClusterBuilder::<P>::new(self.protocol_params())
            .with_seed(self.seed)
            .with_last_k(self.byzantine, NodeRole::Equivocate)
    }

    /// Runs the experiment on the simulator with an optional CPU-model
    /// override.
    fn run_sim(&self, cost: Option<CostModel>) -> ExperimentResult {
        let mut scenario = self.scenario();
        if let Some(cost) = cost {
            scenario = scenario.with_cost(cost);
        }
        let report = match self.system {
            System::Flo => Simulator.run(&self.builder::<FloCluster>(), &scenario),
            System::Wrb => Simulator.run(&self.builder::<Worker>(), &scenario),
            System::HotStuff => Simulator.run(&self.builder::<HotStuffNode>(), &scenario),
            System::BftSmart => Simulator.run(&self.builder::<BftSmartNode>(), &scenario),
        }
        .expect("experiment configuration must be runnable");
        ExperimentResult {
            config: self.clone(),
            report,
        }
    }

    /// Runs the experiment on the simulator with the default machine model
    /// (m5.xlarge).
    pub fn run(&self) -> ExperimentResult {
        self.run_sim(None)
    }

    /// Overrides the CPU model (e.g. `CostModel::c5_4xlarge()` for the §7.6
    /// comparison).
    pub fn run_with_cost(&self, cost: CostModel) -> ExperimentResult {
        self.run_sim(Some(cost))
    }

    /// The nodes metrics are averaged over (correct nodes only). Crashes and
    /// Byzantine roles both target the tail of the cluster, so the faulty set
    /// is the union of the two tails, not their sum.
    pub fn correct_nodes(&self) -> Vec<NodeId> {
        let faulty = self.crashed.max(self.byzantine);
        (0..(self.n - faulty) as u32).map(NodeId).collect()
    }
}

/// The result of one experiment run: its configuration plus the unified
/// report.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// The configuration that produced it.
    pub config: ExperimentConfig,
    /// The unified run report.
    pub report: RunReport,
}

impl ExperimentResult {
    /// Shorthand for the report.
    pub fn summary(&self) -> &RunReport {
        &self.report
    }

    /// The result as a single-line JSON object: the sweep-point configuration
    /// (β, σ, fault counts, ...) alongside the unified report, so downstream
    /// tooling can attribute every row to its point of the parameter grid.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"config\":{{\"system\":\"{:?}\",\"n\":{},\"workers\":{},",
                "\"batch\":{},\"tx_size\":{},\"network\":\"{}\",\"duration_ms\":{},",
                "\"crashed\":{},\"byzantine\":{},\"seed\":{},",
                "\"base_timeout_ms\":{}}},\"report\":{}}}"
            ),
            self.config.system,
            self.config.n,
            self.config.workers,
            self.config.batch,
            self.config.tx_size,
            self.config.network,
            self.config.duration_ms,
            self.config.crashed,
            self.config.byzantine,
            self.config.seed,
            self.config
                .base_timeout_ms
                .map_or("null".to_string(), |ms| ms.to_string()),
            self.report.to_json(),
        )
    }

    /// Prints a human-readable row plus a machine-readable `JSON:` line.
    pub fn emit(&self, label: &str) {
        println!(
            "{label:<28} n={:<3} ω={:<2} β={:<5} σ={:<5} net={:<9} | tps={:>10.0} bps={:>8.1} lat(avg)={:>7.3}s p95={:>7.3}s rps={:>5.2} msgs={:>8}",
            self.config.n,
            self.config.workers,
            self.config.batch,
            self.config.tx_size,
            self.config.network,
            self.report.tps,
            self.report.bps,
            self.report.avg_latency_secs,
            self.report.p95_latency_secs,
            self.report.recoveries_per_sec,
            self.report.msgs_sent,
        );
        println!("JSON: {}", self.to_json());
    }
}

/// Whether the harness should run the full (slow) parameter grids.
/// Controlled by the `FIRELEDGER_BENCH_FULL` environment variable; the default
/// is a quick grid so `cargo run` on every binary finishes in minutes.
pub fn full_mode() -> bool {
    std::env::var("FIRELEDGER_BENCH_FULL").is_ok_and(|v| v != "0")
}

/// The worker counts to sweep (the paper sweeps 1..10; quick mode uses a
/// representative subset).
pub fn worker_sweep() -> Vec<usize> {
    if full_mode() {
        (1..=10).collect()
    } else {
        vec![1, 2, 4, 8]
    }
}

/// The paper's cluster sizes.
pub fn cluster_sizes() -> Vec<usize> {
    vec![4, 7, 10]
}

/// The paper's batch sizes β.
pub fn batch_sizes() -> Vec<usize> {
    vec![10, 100, 1000]
}

/// The paper's transaction sizes σ.
pub fn tx_sizes() -> Vec<usize> {
    vec![512, 1024, 4096]
}

/// Prints the standard experiment banner.
pub fn banner(name: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("FireLedger reproduction — {name}");
    println!("Paper reference: {paper_ref}");
    println!(
        "Mode: {}",
        if full_mode() {
            "FULL"
        } else {
            "quick (set FIRELEDGER_BENCH_FULL=1 for the full grid)"
        }
    );
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_flo_run_produces_throughput() {
        let result = ExperimentConfig::flo(4, 1, 10, 512)
            .duration(Duration::from_millis(300))
            .run();
        assert!(result.report.tps > 0.0, "tps = {}", result.report.tps);
        assert!(result.report.bps > 0.0);
        assert_eq!(result.report.protocol, "flo");
    }

    #[test]
    fn every_system_of_the_matrix_produces_throughput() {
        for system in System::ALL {
            let result = ExperimentConfig::flo(4, 1, 10, 512)
                .system(system)
                .duration(Duration::from_millis(300))
                .run();
            assert!(result.report.tps > 0.0, "{system:?} produced no throughput");
        }
    }

    #[test]
    fn crash_run_restricts_to_correct_nodes() {
        let cfg = ExperimentConfig::flo(4, 1, 10, 512)
            .with_crashes(1)
            .duration(Duration::from_millis(400));
        let result = cfg.run();
        assert_eq!(cfg.correct_nodes().len(), 3);
        assert!(result.report.tps > 0.0);
        assert_eq!(
            result.report.per_node[3].blocks, 0,
            "crashed node delivered"
        );
    }

    #[test]
    fn byzantine_run_reports_recoveries() {
        let result = ExperimentConfig::flo(4, 1, 10, 512)
            .with_byzantine(1)
            .duration(Duration::from_millis(600))
            .run();
        assert!(result.report.recoveries_per_sec >= 0.0);
        assert!(result.report.tps > 0.0);
    }

    #[test]
    fn sweep_helpers_match_paper_table2() {
        assert_eq!(cluster_sizes(), vec![4, 7, 10]);
        assert_eq!(batch_sizes(), vec![10, 100, 1000]);
        assert_eq!(tx_sizes(), vec![512, 1024, 4096]);
        assert!(!worker_sweep().is_empty());
    }

    #[test]
    fn json_rows_carry_the_sweep_configuration() {
        let result = ExperimentConfig::flo(4, 2, 99, 512)
            .duration(Duration::from_millis(200))
            .run();
        let json = result.to_json();
        assert!(json.contains("\"batch\":99"));
        assert!(json.contains("\"system\":\"Flo\""));
        assert!(json.contains(&format!(
            "\"report\":{{\"schema_version\":{},\"protocol\":\"flo\"",
            RunReport::SCHEMA_VERSION
        )));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn overlapping_fault_tails_are_not_double_counted() {
        let cfg = ExperimentConfig::flo(4, 1, 10, 512)
            .with_crashes(1)
            .with_byzantine(1);
        // Both faults land on node 3; nodes 0-2 are correct.
        assert_eq!(cfg.correct_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn geo_configs_use_geo_scenarios_and_timeouts() {
        let cfg = ExperimentConfig::flo(10, 1, 100, 512).geo();
        assert_eq!(cfg.scenario().network_label(), "geo");
        assert!(cfg.protocol_params().base_timeout >= Duration::from_millis(400));
    }
}
