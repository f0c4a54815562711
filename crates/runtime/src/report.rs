//! The unified run report returned by every runtime.
//!
//! [`RunReport`] replaces the divergent metrics extraction that used to live
//! separately in `fireledger_sim::metrics` and the benchmark harness: all
//! runtimes hand back the same schema, so experiment code can compare a
//! simulated run against a TCP run field by field. Fields a
//! runtime cannot measure are zero/empty rather than absent — the schema
//! never changes shape.
//!
//! ## Units and time bases
//!
//! Every field documents its unit on the field itself. One subtlety is
//! worth stating once, centrally: **time-valued fields mean simulated
//! (virtual) time on the `"sim"` runtime and wall-clock time on the
//! `"tcp"` runtime.** A `duration_secs` of `1.8` from the
//! simulator is 1.8 simulated seconds (computed instantly); from a
//! real-time runtime it is 1.8 elapsed real seconds. Rates (`tps`, `bps`,
//! `recoveries_per_sec`) are per second of that same time base.

/// Per-node delivery counters.
///
/// Counts cover the node's **whole run** (warm-up included) — unlike the
/// rate fields of [`RunReport`], which cover only the measurement window.
/// This is deliberate: per-node counters exist to compare ledgers across
/// nodes and runs, where dropping a warm-up prefix would hide divergence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeDeliveries {
    /// The node's index (`0..n`). Unit: none (identifier).
    pub node: u32,
    /// Blocks delivered (in total order) at this node over the whole run.
    /// Unit: blocks (count).
    pub blocks: u64,
    /// Transactions contained in those blocks. Unit: transactions (count).
    pub txs: u64,
    /// Offset of the node's first delivery from the start of the run.
    /// Unit: seconds (simulated on `"sim"`, wall-clock otherwise); 0 when
    /// the node delivered nothing.
    pub first_delivery_secs: f64,
    /// Offset of the node's last delivery from the start of the run.
    /// Unit: seconds; 0 when the node delivered nothing.
    pub last_delivery_secs: f64,
    /// The longest gap between two *consecutive* deliveries at this node —
    /// the stall metric: under a partition it spans the split, and
    /// `last_delivery_secs` past the heal point shows the recovery.
    /// Unit: seconds; 0 with fewer than two deliveries.
    pub max_gap_secs: f64,
}

impl NodeDeliveries {
    /// Computes the delivery-timeline fields from the node's delivery
    /// offsets (seconds from the start of the run, in delivery order).
    pub fn timeline_from(mut self, times_secs: &[f64]) -> Self {
        self.first_delivery_secs = times_secs.first().copied().unwrap_or(0.0);
        self.last_delivery_secs = times_secs.last().copied().unwrap_or(0.0);
        self.max_gap_secs = times_secs
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0, f64::max);
        self
    }
}

/// Per-lane ingress counters of one run (see [`IngressReport`]).
///
/// The counts are the **client fleet's view**: `accepted` is acks the
/// clients received, `committed` is accepted transactions the clients later
/// observed in a delivered block, and `lost` is the difference when the run
/// closed — the accepted-then-lost count the ingress soak exists to pin at
/// zero. Latency percentiles are submit→commit, over this lane's committed
/// transactions (same time base as the rest of the report: simulated
/// seconds on `"sim"`, wall-clock on `"tcp"`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IngressLaneReport {
    /// Submissions acked `Accepted`. Unit: transactions (count).
    pub accepted: u64,
    /// Accepted transactions observed committed. Unit: transactions.
    pub committed: u64,
    /// Accepted transactions never observed committed — must be 0 under
    /// the supported fault plans. Unit: transactions.
    pub lost: u64,
    /// Submissions shed `Busy` (lane full or node down). Unit: attempts.
    pub shed_busy: u64,
    /// Submissions shed `RateLimited`. Unit: attempts.
    pub shed_rate_limited: u64,
    /// Submissions refused `Syncing`. Unit: attempts.
    pub rejected_syncing: u64,
    /// Submissions acked `Duplicate`. Unit: attempts.
    pub duplicate: u64,
    /// Median submit→commit latency. Unit: seconds (0 = no commits).
    pub p50_latency_secs: f64,
    /// 95th-percentile submit→commit latency. Unit: seconds.
    pub p95_latency_secs: f64,
    /// 99th-percentile submit→commit latency. Unit: seconds.
    pub p99_latency_secs: f64,
}

/// The `ingress` section of a [`RunReport`]: client-RPC admission outcomes,
/// per lane, plus fleet-level retry accounting. All-zero with
/// `enabled: false` when the scenario carried no ingress load — the schema
/// never changes shape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngressReport {
    /// True when the scenario ran an ingress client fleet.
    pub enabled: bool,
    /// Per-lane counters, indexed probe / normal / bulk.
    pub lanes: [IngressLaneReport; 3],
    /// Client retries after retryable refusals. Unit: attempts (count).
    pub retries: u64,
    /// Submissions abandoned after the retry budget. Unit: transactions.
    pub abandoned: u64,
    /// Transport-level failures (lost connections, malformed replies).
    /// Unit: attempts (count).
    pub transport_errors: u64,
}

impl IngressReport {
    /// Total accepted submissions across lanes.
    pub fn accepted(&self) -> u64 {
        self.lanes.iter().map(|l| l.accepted).sum()
    }

    /// Total observed commits across lanes.
    pub fn committed(&self) -> u64 {
        self.lanes.iter().map(|l| l.committed).sum()
    }

    /// Total accepted-then-lost across lanes.
    pub fn lost(&self) -> u64 {
        self.lanes.iter().map(|l| l.lost).sum()
    }

    /// Total shed (busy + rate-limited) across lanes.
    pub fn shed(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.shed_busy + l.shed_rate_limited)
            .sum()
    }

    /// The section as a single-line JSON object — exactly the value the
    /// `ingress` key of [`RunReport::to_json`] carries, reusable standalone
    /// by the bench trajectory's ingress rows.
    pub fn to_json(&self) -> String {
        let lanes: Vec<String> = ["probe", "normal", "bulk"]
            .iter()
            .zip(self.lanes.iter())
            .map(|(name, l)| {
                format!(
                    concat!(
                        "{{\"lane\":{},\"accepted\":{},\"committed\":{},\"lost\":{},",
                        "\"shed_busy\":{},\"shed_rate_limited\":{},\"rejected_syncing\":{},",
                        "\"duplicate\":{},\"p50_latency_secs\":{},\"p95_latency_secs\":{},",
                        "\"p99_latency_secs\":{}}}"
                    ),
                    json_string(name),
                    l.accepted,
                    l.committed,
                    l.lost,
                    l.shed_busy,
                    l.shed_rate_limited,
                    l.rejected_syncing,
                    l.duplicate,
                    json_f64(l.p50_latency_secs),
                    json_f64(l.p95_latency_secs),
                    json_f64(l.p99_latency_secs)
                )
            })
            .collect();
        format!(
            "{{\"enabled\":{},\"lanes\":[{}],\"retries\":{},\"abandoned\":{},\"transport_errors\":{}}}",
            self.enabled,
            lanes.join(","),
            self.retries,
            self.abandoned,
            self.transport_errors
        )
    }
}

/// The `execution` section of a [`RunReport`]: the pipelined execution
/// engine's counters, summed over the measured nodes' shards. All-zero with
/// `enabled: false` when the cluster ran without
/// [`ClusterBuilder::with_execution`](crate::ClusterBuilder::with_execution)
/// — the schema never changes shape.
///
/// Counts cover the whole run; `transitions_per_sec` is averaged across the
/// measured nodes over the measurement window, the executed-transitions
/// companion to `tps` (which counts *ordered* transactions — an executed
/// transition is an ordered transaction whose operation decoded and
/// applied).
///
/// The conflicting-workload scenario of docs/SCENARIOS.md: half the
/// executable filler's operations land on a 4-entry hot set
/// (`conflict_pct: 50`), so consecutive operations form real dependency
/// chains — and the engine must still agree with itself: zero root
/// mismatches, and a receipt histogram that accounts for every executed
/// transaction:
///
/// ```
/// use fireledger_runtime::prelude::*;
/// use std::time::Duration;
///
/// let params = ProtocolParams::new(4)
///     .with_batch_size(8)
///     .with_tx_size(64)
///     .with_fill_ops(FillOps { accounts: 64, conflict_pct: 50 });
/// let cluster = ClusterBuilder::<FloCluster>::new(params)
///     .with_execution(ExecConfig::with_genesis(64, 1_000_000));
/// let scenario = Scenario::new("exec-conflict50")
///     .ideal()
///     .run_for(Duration::from_millis(400))
///     .with_warmup(Duration::ZERO);
/// let report = Simulator.run(&cluster, &scenario).unwrap();
/// let e = &report.execution;
/// assert!(e.enabled && e.root_mismatches == 0);
/// assert_eq!(e.receipts.iter().sum::<u64>(), e.executed_txs);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecutionReport {
    /// True when the cluster ran with the execution engine enabled.
    pub enabled: bool,
    /// Committed blocks executed, summed over measured nodes' shards.
    /// Unit: blocks (count).
    pub executed_blocks: u64,
    /// Transactions executed (every transaction of every executed block,
    /// whatever its receipt). Unit: transactions (count).
    pub executed_txs: u64,
    /// Successfully applied state transitions (`applied` receipts).
    /// Unit: transitions (count).
    pub applied_transitions: u64,
    /// Applied transitions per second within the measurement window,
    /// averaged across the measured nodes. Unit: transitions / second.
    pub transitions_per_sec: f64,
    /// Receipt counts by kind, indexed per
    /// [`fireledger_types::Receipt::KIND_LABELS`]. Unit: receipts (count).
    pub receipts: [u64; fireledger_types::Receipt::KINDS],
    /// Delivered execution-root claims cross-checked against local
    /// execution. Unit: checks (count).
    pub root_checks: u64,
    /// Cross-checks that diverged — typed execution faults, 0 on any
    /// honest cluster. Unit: mismatches (count).
    pub root_mismatches: u64,
    /// Engine resets (kill-restart rebuilds) over the run. Unit: resets
    /// (count).
    pub resets: u64,
}

impl ExecutionReport {
    /// The section as a single-line JSON object — the value of the
    /// `execution` key of [`RunReport::to_json`], reusable standalone by
    /// the bench trajectory's execution rows.
    pub fn to_json(&self) -> String {
        let receipts: Vec<String> = fireledger_types::Receipt::KIND_LABELS
            .iter()
            .zip(self.receipts.iter())
            .map(|(label, count)| format!("{}:{}", json_string(label), count))
            .collect();
        format!(
            concat!(
                "{{\"enabled\":{},\"executed_blocks\":{},\"executed_txs\":{},",
                "\"applied_transitions\":{},\"transitions_per_sec\":{},",
                "\"receipts\":{{{}}},\"root_checks\":{},\"root_mismatches\":{},",
                "\"resets\":{}}}"
            ),
            self.enabled,
            self.executed_blocks,
            self.executed_txs,
            self.applied_transitions,
            json_f64(self.transitions_per_sec),
            receipts.join(","),
            self.root_checks,
            self.root_mismatches,
            self.resets,
        )
    }
}

/// Headline numbers of one run, in the units the paper uses.
///
/// Serialized by [`RunReport::to_json`]; the JSON key set is versioned by
/// [`RunReport::SCHEMA_VERSION`] (see there for the bump policy and
/// history).
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Protocol name ([`crate::ClusterProtocol::NAME`]). Unit: none.
    pub protocol: String,
    /// Scenario name. Unit: none.
    pub scenario: String,
    /// Runtime name: `"sim"` or `"tcp"`. Determines the time
    /// base of every time-valued field (see the module docs).
    pub runtime: String,
    /// Name of the scenario's fault plan (`"none"` for a fault-free run).
    /// Unit: none.
    pub fault_plan: String,
    /// Durability configuration of the run: `"none"` when the cluster ran
    /// without a store, `"fsync-<policy>"` (`fsync-always`, `fsync-every64`,
    /// `fsync-os`, …) when [`ClusterBuilder::with_store`] gave every node a
    /// durable block log + WAL. Unit: none.
    ///
    /// [`ClusterBuilder::with_store`]: crate::ClusterBuilder::with_store
    pub durability: String,
    /// Cluster size n. Unit: nodes (count).
    pub n: usize,
    /// FLO workers ω (1 for single-instance protocols). Unit: workers
    /// (count).
    pub workers: usize,
    /// OS threads the cluster ran — protocol threads plus every
    /// runtime-owned helper (socket engine, fault delay
    /// line, RPC accept loops), snapshotted just before shutdown. `0` on
    /// `"sim"` (inline, nothing to count). This is the measurement behind
    /// the TCP reactor's O(n) scaling claim: a fault-free, ingress-free
    /// cluster reports `n + reactor_threads`, with nothing per socket.
    /// Unit: threads (count).
    pub threads: usize,
    /// Length of the measurement window (run duration minus warm-up).
    /// Unit: seconds — simulated on `"sim"`, wall-clock on `"tcp"`.
    pub duration_secs: f64,
    /// Delivered transactions per second within the measurement window,
    /// averaged across the measured (correct, uncrashed) nodes. Unit:
    /// transactions / second.
    pub tps: f64,
    /// Delivered blocks per second within the measurement window, averaged
    /// across the measured nodes. Unit: blocks / second.
    pub bps: f64,
    /// Mean delivery latency. Unit: seconds. On `"sim"` this is simulated
    /// proposal→delivery time per block; on `"tcp"` it is
    /// wall-clock submit→commit time over the scenario's injected
    /// transactions (zero under a purely saturated workload, which injects
    /// nothing to stamp).
    pub avg_latency_secs: f64,
    /// Median delivery latency (same basis as `avg_latency_secs`).
    /// Unit: seconds (0 = unmeasured).
    pub p50_latency_secs: f64,
    /// 95th-percentile delivery latency (same basis as
    /// `avg_latency_secs`). Unit: seconds (0 = unmeasured).
    pub p95_latency_secs: f64,
    /// 99th-percentile delivery latency (same basis as
    /// `avg_latency_secs`). Unit: seconds (0 = unmeasured).
    pub p99_latency_secs: f64,
    /// Recovery procedures started per second (rps in Figure 12). Unit:
    /// recoveries / second.
    pub recoveries_per_sec: f64,
    /// OBBC fallback invocations over the whole run. Unit: invocations
    /// (count).
    pub fallbacks: u64,
    /// Messages sent by the measured nodes over the whole run. Unit:
    /// messages (count; 0 = unmeasured).
    pub msgs_sent: u64,
    /// Framed wire bytes sent by the measured nodes over the whole run: each
    /// copy's frame header plus its encoded payload. Unit: bytes (count;
    /// 0 = unmeasured).
    pub bytes_sent: u64,
    /// Signatures produced over the whole run. Unit: signatures (count;
    /// 0 = unmeasured).
    pub signatures: u64,
    /// Signature verifications performed over the whole run. Unit:
    /// verifications (count; 0 = unmeasured).
    pub verifications: u64,
    /// Empirical latency CDF as `(latency_secs, cumulative_fraction)`
    /// points (Figures 8 and 15). Units: seconds × dimensionless fraction
    /// in `[0, 1]`. Empty when latency is not measured.
    pub latency_cdf: Vec<(f64, f64)>,
    /// Relative time spent between the A→B, B→C, C→D and D→E lifecycle
    /// events (Figure 9). Unit: dimensionless fractions summing to ≈ 1
    /// (all zero when unmeasured).
    pub phase_breakdown: [f64; 4],
    /// Per-node delivery counters, one entry per node of the cluster
    /// (whole-run counts — see [`NodeDeliveries`]).
    pub per_node: Vec<NodeDeliveries>,
    /// Client-RPC ingress outcomes (see [`IngressReport`]); all-zero with
    /// `enabled: false` when the scenario carried no ingress load.
    pub ingress: IngressReport,
    /// Execution-engine outcomes (see [`ExecutionReport`]); all-zero with
    /// `enabled: false` when the cluster ran without execution.
    pub execution: ExecutionReport,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl RunReport {
    /// The report as a single-line JSON object.
    ///
    /// The key set is the report's schema: it is identical for every
    /// protocol and runtime, which is what lets downstream tooling diff runs
    /// across the whole experiment matrix.
    pub fn to_json(&self) -> String {
        let cdf: Vec<String> = self
            .latency_cdf
            .iter()
            .map(|(lat, frac)| format!("[{},{}]", json_f64(*lat), json_f64(*frac)))
            .collect();
        let per_node: Vec<String> = self
            .per_node
            .iter()
            .map(|d| {
                format!(
                    "{{\"node\":{},\"blocks\":{},\"txs\":{},\"first_delivery_secs\":{},\"last_delivery_secs\":{},\"max_gap_secs\":{}}}",
                    d.node,
                    d.blocks,
                    d.txs,
                    json_f64(d.first_delivery_secs),
                    json_f64(d.last_delivery_secs),
                    json_f64(d.max_gap_secs)
                )
            })
            .collect();
        let ingress = self.ingress.to_json();
        let execution = self.execution.to_json();
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"protocol\":{},\"scenario\":{},\"runtime\":{},",
                "\"fault_plan\":{},\"durability\":{},",
                "\"n\":{},\"workers\":{},\"threads\":{},\"duration_secs\":{},",
                "\"tps\":{},\"bps\":{},",
                "\"avg_latency_secs\":{},\"p50_latency_secs\":{},",
                "\"p95_latency_secs\":{},\"p99_latency_secs\":{},",
                "\"recoveries_per_sec\":{},\"fallbacks\":{},",
                "\"msgs_sent\":{},\"bytes_sent\":{},",
                "\"signatures\":{},\"verifications\":{},",
                "\"latency_cdf\":[{}],\"phase_breakdown\":[{},{},{},{}],",
                "\"per_node\":[{}],\"ingress\":{},\"execution\":{}}}"
            ),
            Self::SCHEMA_VERSION,
            json_string(&self.protocol),
            json_string(&self.scenario),
            json_string(&self.runtime),
            json_string(if self.fault_plan.is_empty() {
                "none"
            } else {
                &self.fault_plan
            }),
            json_string(if self.durability.is_empty() {
                "none"
            } else {
                &self.durability
            }),
            self.n,
            self.workers,
            self.threads,
            json_f64(self.duration_secs),
            json_f64(self.tps),
            json_f64(self.bps),
            json_f64(self.avg_latency_secs),
            json_f64(self.p50_latency_secs),
            json_f64(self.p95_latency_secs),
            json_f64(self.p99_latency_secs),
            json_f64(self.recoveries_per_sec),
            self.fallbacks,
            self.msgs_sent,
            self.bytes_sent,
            self.signatures,
            self.verifications,
            cdf.join(","),
            json_f64(self.phase_breakdown[0]),
            json_f64(self.phase_breakdown[1]),
            json_f64(self.phase_breakdown[2]),
            json_f64(self.phase_breakdown[3]),
            per_node.join(","),
            ingress,
            execution,
        )
    }

    /// The top-level JSON keys, in emission order — the report's schema.
    ///
    /// Kept as a constant next to the `to_json` format string; the
    /// `schema_matches_emitted_json` test guards against the two drifting
    /// apart.
    pub fn schema(&self) -> Vec<String> {
        Self::SCHEMA.iter().map(|k| k.to_string()).collect()
    }

    /// Version of the report schema (the JSON key set *and* the documented
    /// meaning/units of each field).
    ///
    /// Bump policy: any key addition, removal, reordering, or change to a
    /// field's unit or time base is a schema change and must increment this
    /// constant and extend the history below. Downstream tooling that diffs
    /// `JSON:` lines across runs should treat differing schema versions as
    /// incomparable.
    ///
    /// History:
    ///
    /// * **1** — initial schema (PR 1): 21 keys, `runtime` ∈ {`"sim"`,
    ///   `"threads"`}; field units undocumented (wall-clock vs simulated
    ///   time was implicit).
    /// * **2** — adds the leading `schema_version` key (21 → 22 keys) so
    ///   the version is visible in the data itself; `runtime` gains the
    ///   value `"tcp"`; units and time bases documented on every field,
    ///   including that real-time runtimes report wall-clock seconds. No
    ///   v1 key changed, so v1 consumers parse v2 reports unchanged.
    /// * **3** — fault-injection support: adds the top-level `fault_plan`
    ///   key (22 → 23 keys; the scenario's plan name, `"none"` when
    ///   fault-free) after `runtime`, and extends every `per_node` entry
    ///   with the delivery-timeline keys `first_delivery_secs`,
    ///   `last_delivery_secs` and `max_gap_secs` (stall/recovery metrics;
    ///   see [`NodeDeliveries`]). Pre-v3 `per_node` keys are unchanged, so
    ///   v2 consumers that ignore unknown keys parse v3 reports.
    /// * **4** — durable-ledger support: adds the top-level `durability`
    ///   key (23 → 24 keys) after `fault_plan` — `"none"` for a volatile
    ///   run, `"fsync-<policy>"` when the cluster persisted through a
    ///   configured store. No other key changed, so v3 consumers that
    ///   ignore unknown keys parse v4 reports.
    /// * **5** — client-RPC ingress: adds the trailing top-level `ingress`
    ///   key (24 → 25 keys), an object with `enabled`, per-lane
    ///   probe/normal/bulk counters (accepted / committed / lost / shed /
    ///   duplicate plus submit→commit latency percentiles) and fleet-level
    ///   `retries` / `abandoned` / `transport_errors`. Always emitted —
    ///   `enabled: false` with zeros when the scenario carried no ingress
    ///   load. No other key changed, so v4 consumers that ignore unknown
    ///   keys parse v5 reports.
    /// * **6** — pipelined execution: adds the trailing top-level
    ///   `execution` key (25 → 26 keys), an object with `enabled`, the
    ///   engine counters (`executed_blocks`, `executed_txs`,
    ///   `applied_transitions`, `transitions_per_sec`), a `receipts` object
    ///   keyed by receipt kind, and the root cross-check counters
    ///   (`root_checks`, `root_mismatches`, `resets`). Always emitted —
    ///   `enabled: false` with zeros when the cluster ran without
    ///   execution. No other key changed, so v5 consumers that ignore
    ///   unknown keys parse v6 reports.
    /// * **7** — thread accounting for the TCP reactor engine: adds the
    ///   top-level `threads` key (26 → 27 keys) after `workers` — the OS
    ///   threads the cluster ran, snapshotted just before shutdown (`0` on
    ///   `"sim"`). This is the number the O(n)-threads scaling claim is
    ///   verified against. No other key changed, so v6 consumers that
    ///   ignore unknown keys parse v7 reports.
    pub const SCHEMA_VERSION: u32 = 7;

    /// The schema as a constant.
    pub const SCHEMA: [&'static str; 27] = [
        "schema_version",
        "protocol",
        "scenario",
        "runtime",
        "fault_plan",
        "durability",
        "n",
        "workers",
        "threads",
        "duration_secs",
        "tps",
        "bps",
        "avg_latency_secs",
        "p50_latency_secs",
        "p95_latency_secs",
        "p99_latency_secs",
        "recoveries_per_sec",
        "fallbacks",
        "msgs_sent",
        "bytes_sent",
        "signatures",
        "verifications",
        "latency_cdf",
        "phase_breakdown",
        "per_node",
        "ingress",
        "execution",
    ];

    /// Prints a human-readable row plus a machine-readable `JSON:` line.
    pub fn emit(&self, label: &str) {
        println!(
            "{label:<28} {:<9}/{:<7} n={:<3} ω={:<2} net={:<9} | tps={:>10.0} bps={:>8.1} lat(avg)={:>7.3}s p95={:>7.3}s rps={:>5.2} msgs={:>8}",
            self.protocol,
            self.runtime,
            self.n,
            self.workers,
            self.scenario,
            self.tps,
            self.bps,
            self.avg_latency_secs,
            self.p95_latency_secs,
            self.recoveries_per_sec,
            self.msgs_sent,
        );
        println!("JSON: {}", self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            protocol: "flo".into(),
            scenario: "test".into(),
            runtime: "sim".into(),
            n: 4,
            workers: 2,
            duration_secs: 1.5,
            tps: 1000.0,
            bps: 10.0,
            latency_cdf: vec![(0.01, 0.5), (0.02, 1.0)],
            phase_breakdown: [0.1, 0.2, 0.3, 0.4],
            per_node: vec![
                NodeDeliveries {
                    node: 0,
                    blocks: 15,
                    txs: 1500,
                    ..Default::default()
                },
                NodeDeliveries {
                    node: 1,
                    blocks: 15,
                    txs: 1500,
                    ..Default::default()
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn json_is_wellformed_and_contains_headline_fields() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"protocol\":\"flo\""));
        assert!(json.contains("\"tps\":1000"));
        assert!(json.contains("\"per_node\":[{\"node\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn schema_is_independent_of_values() {
        let empty = RunReport::default().schema();
        let full = sample().schema();
        assert_eq!(empty, full);
        assert!(full.contains(&"tps".to_string()));
        assert!(full.contains(&"per_node".to_string()));
        assert!(full.contains(&"fault_plan".to_string()));
        assert!(full.contains(&"durability".to_string()));
        assert!(full.contains(&"ingress".to_string()));
        assert!(full.contains(&"execution".to_string()));
        assert!(full.contains(&"threads".to_string()));
        assert_eq!(full.len(), 27);
        assert_eq!(full[0], "schema_version");
    }

    #[test]
    fn execution_section_emits_disabled_zeros_and_populated_counters() {
        let json = RunReport::default().to_json();
        assert!(json.contains("\"execution\":{\"enabled\":false,\"executed_blocks\":0"));
        assert!(json.contains("\"receipts\":{\"applied\":0,"));
        let mut r = sample();
        r.execution.enabled = true;
        r.execution.executed_blocks = 12;
        r.execution.executed_txs = 480;
        r.execution.applied_transitions = 450;
        r.execution.transitions_per_sec = 300.0;
        r.execution.receipts[0] = 450;
        r.execution.receipts[1] = 30;
        r.execution.root_checks = 9;
        let json = r.to_json();
        assert!(json.contains("\"enabled\":true"));
        assert!(json.contains("\"applied_transitions\":450"));
        assert!(json.contains("\"transitions_per_sec\":300"));
        assert!(json.contains("\"applied\":450,\"insufficient_funds\":30"));
        assert!(json.contains("\"root_checks\":9,\"root_mismatches\":0,\"resets\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn ingress_section_emits_disabled_zeros_and_populated_lanes() {
        let json = RunReport::default().to_json();
        assert!(json.contains("\"ingress\":{\"enabled\":false,\"lanes\":[{\"lane\":\"probe\""));
        let mut r = sample();
        r.ingress.enabled = true;
        r.ingress.lanes[1].accepted = 40;
        r.ingress.lanes[1].committed = 40;
        r.ingress.lanes[2].shed_busy = 7;
        r.ingress.lanes[1].p99_latency_secs = 0.25;
        r.ingress.retries = 3;
        assert_eq!(r.ingress.accepted(), 40);
        assert_eq!(r.ingress.lost(), 0);
        assert_eq!(r.ingress.shed(), 7);
        let json = r.to_json();
        assert!(json.contains("\"enabled\":true"));
        assert!(json.contains("\"lane\":\"normal\",\"accepted\":40,\"committed\":40,\"lost\":0"));
        assert!(json.contains(
            "\"lane\":\"bulk\",\"accepted\":0,\"committed\":0,\"lost\":0,\"shed_busy\":7"
        ));
        assert!(json.contains("\"p99_latency_secs\":0.25"));
        assert!(json.contains("\"retries\":3,\"abandoned\":0,\"transport_errors\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn fault_plan_defaults_to_none_and_timeline_fields_emit() {
        let json = sample().to_json();
        assert!(json.contains("\"fault_plan\":\"none\""));
        assert!(json.contains("\"durability\":\"none\""));
        assert!(json.contains("\"first_delivery_secs\":"));
        let named = RunReport {
            fault_plan: "partition-heal".into(),
            durability: "fsync-every64".into(),
            ..Default::default()
        };
        let json = named.to_json();
        assert!(json.contains("\"fault_plan\":\"partition-heal\""));
        assert!(json.contains("\"durability\":\"fsync-every64\""));
    }

    #[test]
    fn timeline_from_computes_stall_metrics() {
        let d = NodeDeliveries::default().timeline_from(&[0.1, 0.2, 0.9, 1.0]);
        assert_eq!(d.first_delivery_secs, 0.1);
        assert_eq!(d.last_delivery_secs, 1.0);
        assert!((d.max_gap_secs - 0.7).abs() < 1e-12);
        // Degenerate series.
        let empty = NodeDeliveries::default().timeline_from(&[]);
        assert_eq!(
            (
                empty.first_delivery_secs,
                empty.last_delivery_secs,
                empty.max_gap_secs
            ),
            (0.0, 0.0, 0.0)
        );
        let one = NodeDeliveries::default().timeline_from(&[0.5]);
        assert_eq!(one.max_gap_secs, 0.0);
        assert_eq!(one.first_delivery_secs, 0.5);
    }

    #[test]
    fn schema_matches_emitted_json() {
        // Every schema key must appear as a top-level key in the emitted
        // JSON, in schema order — guards the const list against drifting
        // from the format string.
        let json = sample().to_json();
        let mut from = 0usize;
        for key in RunReport::SCHEMA {
            let needle = format!("\"{key}\":");
            let at = json[from..]
                .find(&needle)
                .unwrap_or_else(|| panic!("key {key} missing or out of order"));
            from += at + needle.len();
        }
    }

    #[test]
    fn json_escapes_strings() {
        let r = RunReport {
            scenario: "with \"quotes\"\nand newline".into(),
            ..Default::default()
        };
        let json = r.to_json();
        assert!(json.contains("with \\\"quotes\\\"\\nand newline"));
    }

    #[test]
    fn non_finite_rates_become_zero() {
        let r = RunReport {
            tps: f64::NAN,
            bps: f64::INFINITY,
            ..Default::default()
        };
        let json = r.to_json();
        assert!(json.contains("\"tps\":0"));
        assert!(json.contains("\"bps\":0"));
    }
}
