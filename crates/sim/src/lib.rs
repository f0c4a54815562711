//! # fireledger-sim
//!
//! A deterministic discrete-event simulator that stands in for the paper's
//! AWS testbed (single data-center and geo-distributed m5.xlarge /
//! c5.4xlarge clusters).
//!
//! The simulator drives any [`fireledger_types::Protocol`] state machine and
//! models the three resources that bound the paper's results:
//!
//! * **link latency** — constant, jittered, or a per-region matrix of AWS
//!   inter-region delays ([`latency::LatencyModel`]);
//! * **per-node egress bandwidth** — every outgoing copy of a message
//!   serializes through the sender's NIC ([`engine::SimConfig`]);
//! * **per-node multi-core CPU** — cryptographic work reported by protocols
//!   through `CpuCharge` actions is charged against a set of cores using the
//!   calibrated [`fireledger_crypto::CostModel`].
//!
//! Executions are fully deterministic for a given seed, which makes the
//! simulator usable both for correctness tests (including property-based
//! tests over random schedules) and for the performance experiments in
//! `fireledger-bench`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod engine;
pub mod latency;
pub mod metrics;
pub mod time;
pub mod workload;

pub use adversary::{Adversary, Fate, LateJoinAdversary, PassThrough, PlanAdversary};
pub use engine::{SimConfig, Simulation};
pub use latency::{GeoMatrix, LatencyModel, Region};
pub use metrics::{BlockLifecycle, Metrics, RunSummary};
pub use time::SimTime;
pub use workload::TxInjector;
