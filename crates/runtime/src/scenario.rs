//! Scenario descriptions: topology × workload × fault schedule × duration.
//!
//! A [`Scenario`] is a plain value describing *what happens to a cluster* —
//! which network it runs on, how clients load it, which nodes crash when, and
//! for how long the experiment runs. The same value is consumed identically
//! by every [`crate::Runtime`], so one scenario definition drives both the
//! deterministic simulator and the real-time socket cluster.

use fireledger_crypto::CostModel;
use fireledger_sim::{CrashSchedule, LatencyModel, SimConfig, SimTime, TxInjector};
use fireledger_types::{FaultPlan, NodeId, Transaction};
use std::time::Duration;

/// The network the cluster runs on.
#[derive(Clone, Debug)]
pub enum Topology {
    /// Idealized unit-test network: 1 ms constant latency, free CPU.
    Ideal,
    /// Single data-center: ≈250 µs jittered links, 10 Gbps NICs, m5.xlarge
    /// CPU model (the paper's default deployment, §7).
    SingleDc,
    /// The ten-region geo-distributed deployment of §7.5.
    Geo,
    /// Any custom latency model — e.g. a bespoke region matrix.
    Custom(LatencyModel),
}

/// How clients load the cluster.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Saturated load: no explicit client traffic; proposers fill every block
    /// to β transactions (requires `ProtocolParams::fill_blocks`, the paper's
    /// §7.2 evaluation mode).
    Saturated,
    /// Open-loop injection at a fixed aggregate rate, round-robin across the
    /// nodes.
    OpenLoop {
        /// Aggregate transactions per second.
        rate_per_sec: f64,
        /// Payload size σ in bytes.
        tx_size: usize,
    },
    /// Closed-loop clients, approximated as an open loop at the equilibrium
    /// rate `clients / think_time` (exact closed-loop feedback would need the
    /// runtimes to report completions back into the workload generator).
    ClosedLoop {
        /// Number of clients.
        clients: usize,
        /// Per-client think time between requests.
        think_time: Duration,
        /// Payload size σ in bytes.
        tx_size: usize,
    },
}

/// One scheduled fault: `node` crashes `at` after the run starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The crashing node.
    pub node: NodeId,
    /// Absolute trigger time (offset from the start of the run).
    pub at: Duration,
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable scenario name (appears in reports).
    pub name: String,
    /// Network topology.
    pub topology: Topology,
    /// Client workload.
    pub workload: Workload,
    /// Crash-fault schedule with absolute trigger times.
    pub crashes: Vec<FaultEvent>,
    /// The declarative network/node adversity applied to the run: link
    /// faults, partitions and crash-recover node faults, compiled into the
    /// matching interceptor on every runtime (see `docs/SCENARIOS.md`).
    /// `None` runs fault-free (modulo [`Scenario::crashes`] and builder
    /// roles).
    pub faults: Option<FaultPlan>,
    /// Total run length.
    pub duration: Duration,
    /// Warm-up prefix excluded from rate metrics.
    pub warmup: Duration,
    /// True once `with_warmup` set the warm-up explicitly; `run_for` then
    /// leaves it alone instead of re-deriving 10% of the duration.
    warmup_explicit: bool,
    /// RNG seed (link jitter, workload payloads).
    pub seed: u64,
    /// Per-node egress bandwidth override (`Some(None)` = unlimited).
    bandwidth: Option<Option<u64>>,
    /// CPU cost-model override.
    cost: Option<CostModel>,
    /// Client ingress soak riding on the run: an open-loop RPC client fleet
    /// submitting through every node's admission gate, with per-lane
    /// accept/shed/commit-latency accounting in the report's `ingress`
    /// section. `None` (the default) leaves the run on the plain workload
    /// injection path.
    pub ingress: Option<crate::ingress::IngressLoad>,
}

impl Scenario {
    /// A new scenario: single data-center, saturated load, 2 simulated
    /// seconds, 10% warm-up.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            topology: Topology::SingleDc,
            workload: Workload::Saturated,
            crashes: Vec::new(),
            faults: None,
            duration: Duration::from_secs(2),
            warmup: Duration::from_millis(200),
            warmup_explicit: false,
            seed: 1,
            bandwidth: None,
            cost: None,
            ingress: None,
        }
    }

    /// Switches to the idealized unit-test network.
    pub fn ideal(mut self) -> Self {
        self.topology = Topology::Ideal;
        self
    }

    /// Switches to the single data-center model (the default).
    pub fn single_dc(mut self) -> Self {
        self.topology = Topology::SingleDc;
        self
    }

    /// Switches to the ten-region geo-distributed model.
    pub fn geo(mut self) -> Self {
        self.topology = Topology::Geo;
        self
    }

    /// Uses a custom latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.topology = Topology::Custom(latency);
        self
    }

    /// Saturated load (the default).
    pub fn saturated(mut self) -> Self {
        self.workload = Workload::Saturated;
        self
    }

    /// Open-loop injection at `rate_per_sec` transactions of `tx_size` bytes.
    pub fn open_loop(mut self, rate_per_sec: f64, tx_size: usize) -> Self {
        self.workload = Workload::OpenLoop {
            rate_per_sec,
            tx_size,
        };
        self
    }

    /// Closed-loop clients (see [`Workload::ClosedLoop`]).
    pub fn closed_loop(mut self, clients: usize, think_time: Duration, tx_size: usize) -> Self {
        self.workload = Workload::ClosedLoop {
            clients,
            think_time,
            tx_size,
        };
        self
    }

    /// Schedules `node` to crash `at` after the start.
    pub fn crash(mut self, node: NodeId, at: Duration) -> Self {
        self.crashes.push(FaultEvent { node, at });
        self
    }

    /// Attaches a declarative [`FaultPlan`] — link faults, partitions and
    /// crash-recover node faults, applied identically by every runtime.
    /// The canonical plans live in [`crate::catalog`]; the normative
    /// catalog with one snippet per plan is `docs/SCENARIOS.md`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches an open-loop client-RPC ingress soak (see
    /// [`crate::ingress::IngressLoad`]): clients submit through the §11 RPC
    /// sub-protocol into per-node admission gates instead of the raw
    /// injection path, and the run report gains a populated `ingress`
    /// section with per-lane accepted/shed/lost counts and submit→commit
    /// latency percentiles.
    pub fn with_ingress(mut self, load: crate::ingress::IngressLoad) -> Self {
        self.ingress = Some(load);
        self
    }

    /// Schedules the last `f` of `n` nodes to crash at `at` — the shape of
    /// the benign-failure experiment (§7.4.1).
    pub fn crash_last_f(mut self, n: usize, f: usize, at: Duration) -> Self {
        for i in n.saturating_sub(f)..n {
            self.crashes.push(FaultEvent {
                node: NodeId(i as u32),
                at,
            });
        }
        self
    }

    /// Sets the run length; unless [`Scenario::with_warmup`] pinned it
    /// explicitly, the warm-up is re-derived as 10% of the duration.
    pub fn run_for(mut self, duration: Duration) -> Self {
        self.duration = duration;
        if !self.warmup_explicit {
            self.warmup = duration / 10;
        }
        self
    }

    /// Overrides the warm-up prefix excluded from rate metrics. The value
    /// sticks regardless of builder-call order with [`Scenario::run_for`].
    pub fn with_warmup(mut self, warmup: Duration) -> Self {
        self.warmup = warmup;
        self.warmup_explicit = true;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the CPU cost model (e.g. `CostModel::c5_4xlarge()` for the
    /// §7.6 comparison).
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Overrides the per-node egress bandwidth (`None` = unlimited).
    pub fn with_bandwidth(mut self, bytes_per_sec: Option<u64>) -> Self {
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// A base timeout suited to this scenario's topology — geo links need
    /// hundreds of milliseconds where a data-center needs tens.
    pub fn recommended_timeout(&self) -> Duration {
        match self.topology {
            Topology::Geo => Duration::from_millis(400),
            Topology::Custom(ref latency) => {
                (latency.upper_bound() * 2).max(Duration::from_millis(20))
            }
            _ => Duration::from_millis(20),
        }
    }

    /// Short label of the topology for reports.
    pub fn network_label(&self) -> &'static str {
        match self.topology {
            Topology::Ideal => "ideal",
            Topology::SingleDc => "single-dc",
            Topology::Geo => "geo",
            Topology::Custom(_) => "custom",
        }
    }

    /// The simulator configuration this scenario describes.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = match &self.topology {
            Topology::Ideal => SimConfig::ideal(),
            Topology::SingleDc => SimConfig::single_dc(),
            Topology::Geo => SimConfig::geo_distributed(),
            Topology::Custom(latency) => SimConfig::single_dc().with_latency(latency.clone()),
        };
        cfg = cfg.with_seed(self.seed);
        if let Some(cost) = self.cost {
            cfg = cfg.with_cost(cost);
        }
        if let Some(bandwidth) = self.bandwidth {
            cfg = cfg.with_bandwidth(bandwidth);
        }
        cfg
    }

    /// The crash schedule over both this scenario's fault events and the
    /// builder-level `CrashAt` roles passed in by the runtime.
    pub fn crash_schedule(&self, extra: &[(NodeId, Duration)]) -> CrashSchedule {
        let mut schedule = CrashSchedule::new();
        for fault in &self.crashes {
            schedule = schedule.crash(fault.node, SimTime::ZERO + fault.at);
        }
        for (node, at) in extra {
            schedule = schedule.crash(*node, SimTime::ZERO + *at);
        }
        schedule
    }

    /// The nodes this scenario crashes (regardless of trigger time).
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.crashes.iter().map(|f| f.node).collect()
    }

    /// Every node this scenario faults at any point: scenario crash events
    /// plus the fault plan's node faults (crash-recover included — a node
    /// that was down for part of the window would bias rate averages).
    /// Run reports exclude these nodes from rate metrics.
    pub fn faulted_nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.crashed_nodes();
        if let Some(plan) = &self.faults {
            nodes.extend(plan.faulted_nodes());
        }
        nodes.sort_by_key(|n| n.0);
        nodes.dedup();
        nodes
    }

    /// The fault-plan name recorded in run reports (`"none"` when the
    /// scenario carries no plan).
    pub fn fault_plan_name(&self) -> String {
        self.faults
            .as_ref()
            .map(|p| p.name.clone())
            .unwrap_or_else(|| "none".to_string())
    }

    /// The client-injection schedule for an `n`-node cluster, as
    /// `(time, target, transaction)` triples in time order. Empty for
    /// saturated load.
    pub fn injection_schedule(&self, n: usize) -> Vec<(SimTime, NodeId, Transaction)> {
        let (rate, tx_size) = match &self.workload {
            Workload::Saturated => return Vec::new(),
            Workload::OpenLoop {
                rate_per_sec,
                tx_size,
            } => (*rate_per_sec, *tx_size),
            Workload::ClosedLoop {
                clients,
                think_time,
                tx_size,
            } => {
                let think = think_time.as_secs_f64().max(1e-6);
                (*clients as f64 / think, *tx_size)
            }
        };
        TxInjector::new(rate, tx_size, n)
            .with_seed(self.seed)
            .schedule(SimTime::ZERO, SimTime::ZERO + self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers_defaults() {
        let s = Scenario::new("x");
        assert_eq!(s.network_label(), "single-dc");
        assert!(matches!(s.workload, Workload::Saturated));
        assert!(s.injection_schedule(4).is_empty());
        assert_eq!(s.recommended_timeout(), Duration::from_millis(20));
    }

    #[test]
    fn geo_recommends_larger_timeouts() {
        assert!(Scenario::new("g").geo().recommended_timeout() >= Duration::from_millis(400));
    }

    #[test]
    fn open_loop_schedule_matches_rate() {
        let s = Scenario::new("w")
            .open_loop(100.0, 64)
            .run_for(Duration::from_secs(1));
        let sched = s.injection_schedule(4);
        assert_eq!(sched.len(), 100);
        assert!(sched.iter().all(|(_, _, tx)| tx.payload_len() == 64));
    }

    #[test]
    fn closed_loop_approximates_equilibrium_rate() {
        let s = Scenario::new("c")
            .closed_loop(10, Duration::from_millis(100), 32)
            .run_for(Duration::from_secs(1));
        // 10 clients thinking 100 ms each ⇒ ≈100 tx/s.
        assert_eq!(s.injection_schedule(4).len(), 100);
    }

    #[test]
    fn crash_helpers_fill_the_schedule() {
        let s = Scenario::new("f")
            .crash(NodeId(1), Duration::from_millis(50))
            .crash_last_f(7, 2, Duration::from_millis(100));
        assert_eq!(s.crashes.len(), 3);
        assert_eq!(s.crashed_nodes(), vec![NodeId(1), NodeId(5), NodeId(6)]);
        let schedule = s.crash_schedule(&[(NodeId(0), Duration::ZERO)]);
        assert_eq!(
            schedule.correct_nodes(7),
            vec![NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn explicit_warmup_survives_run_for_in_any_order() {
        let before = Scenario::new("w")
            .with_warmup(Duration::ZERO)
            .run_for(Duration::from_secs(2));
        assert_eq!(before.warmup, Duration::ZERO);
        let after = Scenario::new("w")
            .run_for(Duration::from_secs(2))
            .with_warmup(Duration::from_millis(5));
        assert_eq!(after.warmup, Duration::from_millis(5));
        let derived = Scenario::new("w").run_for(Duration::from_secs(2));
        assert_eq!(derived.warmup, Duration::from_millis(200));
    }

    #[test]
    fn fault_plan_rides_on_the_scenario() {
        use fireledger_types::FaultPlan;
        let bare = Scenario::new("bare");
        assert_eq!(bare.fault_plan_name(), "none");
        assert!(bare.faulted_nodes().is_empty());

        let plan = FaultPlan::named("adversity").crash_recover(
            NodeId(2),
            Duration::from_millis(10),
            Duration::from_millis(20),
        );
        let s = Scenario::new("s")
            .crash(NodeId(1), Duration::ZERO)
            .with_faults(plan);
        assert_eq!(s.fault_plan_name(), "adversity");
        // Scenario crashes and plan node faults merge, sorted and deduped.
        assert_eq!(s.faulted_nodes(), vec![NodeId(1), NodeId(2)]);
        // crashed_nodes keeps its pre-plan meaning.
        assert_eq!(s.crashed_nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn sim_config_reflects_overrides() {
        let cfg = Scenario::new("o")
            .with_seed(9)
            .with_bandwidth(None)
            .with_cost(CostModel::free())
            .sim_config();
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.bandwidth_bytes_per_sec, None);
        assert_eq!(cfg.cost, CostModel::free());
    }
}
