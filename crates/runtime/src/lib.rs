//! # fireledger-runtime
//!
//! The unified assembly-and-driving surface of the FireLedger workspace: one
//! way to build, run and observe any protocol cluster on any runtime.
//!
//! The paper's whole evaluation is a single experiment matrix —
//! {FireLedger/FLO, WRB/OBBC, HotStuff, BFT-SMaRt} × {single-DC, geo,
//! crash, Byzantine} × {simulation, real sockets}. This crate
//! makes each axis one value:
//!
//! * [`ClusterBuilder`] assembles a cluster of any [`ClusterProtocol`] from
//!   [`ProtocolParams`](fireledger_types::ProtocolParams) plus a per-node
//!   [`NodeRole`] map (correct / equivocate / silent-proposer);
//! * [`Scenario`] describes the topology (single-DC, geo, custom latency
//!   matrix), the workload (saturated, open-loop rate, closed-loop clients)
//!   and the [`FaultPlan`](fireledger_types::FaultPlan) — every crash and
//!   network fault, at absolute trigger times;
//! * a [`Runtime`] — [`Simulator`] (deterministic discrete events) or
//!   [`Tcp`] (one OS thread per node, wall-clock time, over a real
//!   localhost `TcpStream` mesh speaking the binary wire format of
//!   `docs/WIRE_FORMAT.md`) — consumes both and returns a [`RunReport`]
//!   with an identical schema either way.
//!
//! ## Example: the same scenario across protocols and runtimes
//!
//! ```
//! use fireledger_runtime::prelude::*;
//! use std::time::Duration;
//!
//! let params = ProtocolParams::new(4)
//!     .with_batch_size(8)
//!     .with_tx_size(64)
//!     .with_base_timeout(Duration::from_millis(20));
//! let scenario = Scenario::new("smoke").ideal().run_for(Duration::from_millis(300));
//!
//! let flo = Simulator
//!     .run(&ClusterBuilder::<FloCluster>::new(params.clone()), &scenario)
//!     .unwrap();
//! let hs = Simulator
//!     .run(&ClusterBuilder::<HotStuffNode>::new(params), &scenario)
//!     .unwrap();
//! assert!(flo.tps > 0.0 && hs.tps > 0.0);
//! assert_eq!(flo.schema(), hs.schema());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod builder;
pub mod catalog;
mod ingress;
mod report;
mod run;
mod scenario;

pub use builder::{BuildContext, ClusterBuilder, ClusterProtocol, FloCluster, NodeRole};
pub use fireledger_net::DEFAULT_REACTOR_THREADS;
pub use ingress::{ClientFleet, ClusterIngress, IngressLoad, PayloadKind};
pub use report::{ExecutionReport, IngressLaneReport, IngressReport, NodeDeliveries, RunReport};
pub use run::{check_delivery_prefixes, Runtime, Simulator, Tcp};
pub use scenario::{Scenario, Topology, Workload};

/// Everything a typical experiment needs, re-exported for
/// `use fireledger_runtime::prelude::*`.
pub mod prelude {
    pub use crate::{
        check_delivery_prefixes, ClusterBuilder, ClusterProtocol, ExecutionReport, FloCluster,
        IngressLaneReport, IngressLoad, IngressReport, NodeDeliveries, NodeRole, PayloadKind,
        RunReport, Runtime, Scenario, Simulator, Tcp, Topology, Workload, DEFAULT_REACTOR_THREADS,
    };
    pub use fireledger::{AcceptAll, ClusterNode, FloNode, Worker};
    pub use fireledger_baselines::{BftSmartNode, HotStuffNode};
    pub use fireledger_exec::{ExecConfig, ExecShared, SerialExecutor};
    pub use fireledger_store::FsyncPolicy;
    pub use fireledger_types::{
        Block, BlockHeader, ClusterConfig, Delivery, DiskFault, FaultPlan, FaultWindow, FillOps,
        KillFault, LinkSelector, NodeId, ProtocolParams, Round, Transaction, WorkerId,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::time::Duration;

    fn params(n: usize) -> ProtocolParams {
        ProtocolParams::new(n)
            .with_batch_size(8)
            .with_tx_size(64)
            .with_base_timeout(Duration::from_millis(20))
    }

    fn quick() -> Scenario {
        Scenario::new("unit")
            .ideal()
            .run_for(Duration::from_millis(300))
    }

    #[test]
    fn simulator_runs_all_five_protocols() {
        let s = quick();
        let p = params(4);
        let reports = [
            Simulator
                .run(&ClusterBuilder::<FloCluster>::new(p.clone()), &s)
                .unwrap(),
            Simulator
                .run(&ClusterBuilder::<Worker>::new(p.clone()), &s)
                .unwrap(),
            Simulator
                .run(&ClusterBuilder::<HotStuffNode>::new(p.clone()), &s)
                .unwrap(),
            Simulator
                .run(&ClusterBuilder::<BftSmartNode>::new(p), &s)
                .unwrap(),
        ];
        let names: Vec<&str> = reports.iter().map(|r| r.protocol.as_str()).collect();
        assert_eq!(names, ["flo", "wrb-obbc", "hotstuff", "bft-smart"]);
        for r in &reports {
            assert!(r.tps > 0.0, "{} produced no throughput", r.protocol);
            assert!(r.per_node.iter().all(|d| d.blocks > 0), "{}", r.protocol);
        }
    }

    #[test]
    fn simulated_runs_are_deterministic() {
        let s = quick().with_seed(5);
        let run = || {
            Simulator
                .run(
                    &ClusterBuilder::<FloCluster>::new(params(4)).with_seed(5),
                    &s,
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn equivocating_role_triggers_recoveries() {
        let report = Simulator
            .run(
                &ClusterBuilder::<FloCluster>::new(params(4))
                    .with_role(NodeId(3), NodeRole::Equivocate),
                &Scenario::new("byz").ideal().run_for(Duration::from_secs(2)),
            )
            .unwrap();
        assert!(report.recoveries_per_sec > 0.0);
        assert!(report.tps > 0.0);
    }

    #[test]
    fn open_loop_workload_reaches_protocols() {
        let p = params(4).with_fill_blocks(false);
        let s = Scenario::new("open")
            .ideal()
            .open_loop(500.0, 64)
            .run_for(Duration::from_millis(500))
            .with_warmup(Duration::ZERO);
        let report = Simulator
            .run(&ClusterBuilder::<FloCluster>::new(p), &s)
            .unwrap();
        assert!(report.tps > 0.0);
    }

    #[test]
    fn sim_ingress_soak_accepts_commits_and_loses_nothing() {
        let p = params(4).with_fill_blocks(false);
        let s = Scenario::new("ingress-smoke")
            .ideal()
            .run_for(Duration::from_secs(1))
            .with_seed(11)
            .with_ingress(
                crate::IngressLoad::new(8, Duration::from_millis(10), 64)
                    .with_drain(Duration::from_millis(300)),
            );
        let run = || {
            Simulator
                .run(
                    &ClusterBuilder::<FloCluster>::new(p.clone()).with_seed(11),
                    &s,
                )
                .unwrap()
        };
        let report = run();
        assert!(report.ingress.enabled);
        assert!(report.ingress.accepted() > 20, "{:?}", report.ingress);
        assert_eq!(report.ingress.lost(), 0, "{:?}", report.ingress);
        assert_eq!(
            report.ingress.accepted(),
            report.ingress.committed(),
            "{:?}",
            report.ingress
        );
        assert!(
            report
                .ingress
                .lanes
                .iter()
                .any(|l| l.p99_latency_secs > 0.0),
            "{:?}",
            report.ingress
        );
        // The sliced ingress drive must stay bit-deterministic.
        assert_eq!(report.to_json(), run().to_json());
    }

    #[test]
    fn sim_ingress_sheds_under_overload_with_typed_refusals() {
        let p = params(4).with_fill_blocks(false);
        // Tiny lane capacities + aggressive clients: the gates must shed.
        let admission = fireledger::AdmissionConfig {
            capacity: 4,
            rate_per_sec: 50,
            burst: 5,
            ..Default::default()
        };
        let s = Scenario::new("ingress-overload")
            .ideal()
            .run_for(Duration::from_millis(800))
            .with_ingress(
                crate::IngressLoad::new(24, Duration::from_millis(2), 64)
                    .with_admission(admission)
                    .with_max_retries(1),
            );
        let report = Simulator
            .run(&ClusterBuilder::<FloCluster>::new(p), &s)
            .unwrap();
        assert!(
            report.ingress.shed() > 0,
            "overload must shed: {:?}",
            report.ingress
        );
        assert_eq!(report.ingress.lost(), 0, "{:?}", report.ingress);
        assert!(report.ingress.retries > 0);
    }

    #[test]
    fn execution_pipeline_reports_and_stays_deterministic() {
        let p = params(4).with_fill_blocks(false);
        let s = Scenario::new("exec-smoke")
            .ideal()
            .run_for(Duration::from_secs(1))
            .with_seed(13)
            .with_ingress(
                IngressLoad::new(8, Duration::from_millis(5), 64)
                    .with_drain(Duration::from_millis(300))
                    .with_payload(PayloadKind::Transfers {
                        accounts: 64,
                        conflict_pct: 25,
                    }),
            );
        let run = || {
            Simulator
                .run(
                    &ClusterBuilder::<FloCluster>::new(p.clone())
                        .with_seed(13)
                        .with_execution(ExecConfig::with_genesis(64, 1_000_000)),
                    &s,
                )
                .unwrap()
        };
        let report = run();
        assert!(report.execution.enabled);
        assert!(
            report.execution.executed_blocks > 0,
            "{:?}",
            report.execution
        );
        assert!(report.execution.executed_txs > 0, "{:?}", report.execution);
        assert!(
            report.execution.applied_transitions > 0,
            "{:?}",
            report.execution
        );
        assert!(report.execution.transitions_per_sec > 0.0);
        assert!(report.execution.root_checks > 0, "{:?}", report.execution);
        assert_eq!(
            report.execution.root_mismatches, 0,
            "{:?}",
            report.execution
        );
        // Execution rides the deterministic slicing: bit-identical reruns.
        assert_eq!(report.to_json(), run().to_json());
    }

    #[test]
    fn tcp_runtime_matches_schema_and_delivers_over_real_sockets() {
        let s = Scenario::new("tcp").run_for(Duration::from_millis(400));
        let sim = Simulator
            .run(&ClusterBuilder::<FloCluster>::new(params(4)), &quick())
            .unwrap();
        let tcp = Tcp
            .run(&ClusterBuilder::<FloCluster>::new(params(4)), &s)
            .unwrap();
        assert_eq!(sim.schema(), tcp.schema());
        assert_eq!(tcp.runtime, "tcp");
        assert!(tcp.tps > 0.0, "tcp cluster delivered nothing");
        assert!(tcp.per_node.iter().all(|d| d.blocks > 0));
    }
}
