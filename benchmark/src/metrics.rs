//! The metric tables — the single place a metric's name, unit, direction
//! and bound are written down — and the result line the driver reads.
//! `BENCHMARK.json` at the repo root mirrors these tables; a unit test
//! fails when the two drift apart.

use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the driver passes.
pub const RUN_SECONDS: u64 = 20;

/// What a user of the system sees. Reported (with `--trace 0`) on every
/// workload, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("tps", "tx/s", Higher, 0.25),
    e2e("commit_latency_p50_ms", "ms", Lower, 0.25),
    e2e("commit_latency_p95_ms", "ms", Lower, 0.25),
    e2e("cpu_us_per_tx", "us", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers. Reported (with `--trace 1`) on every workload; a layer a
/// workload leaves idle reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // From the real-socket segments, measured outside the program.
    layer("client.rpc_rtt_p50_us", "us", Lower),
    layer("client.lateness_p99_ms", "ms", Lower),
    layer("client.commit_latency_p99_ms", "ms", Lower),
    layer("client.refused_share", "ratio", Lower),
    layer("client.failed_share", "ratio", Lower),
    layer("core.bps", "1/s", Higher),
    layer("core.max_gap_ms", "ms", Lower),
    layer("core.service_gap_ms", "ms", Lower),
    layer("runtime.threads", "count", Lower),
    layer("process.cpu_us_per_block", "us", Lower),
    layer("process.cpu_cores_busy", "cores", Lower),
    layer("process.peak_rss_mb", "MB", Lower),
    layer("process.rss_bytes_per_tx", "B", Lower),
    layer("process.ctx_switches_per_block", "count", Lower),
    layer("store.disk_bytes_per_tx", "B", Lower),
    layer("exec.tps", "1/s", Higher),
    layer("exec.applied_share", "ratio", Higher),
    layer("exec.root_mismatches", "count", Lower),
    // From the traced single-threaded loop, per block node 0 delivers.
    layer("types.encode_us", "us", Lower),
    layer("types.decode_us", "us", Lower),
    layer("types.wire_bytes", "B", Lower),
    layer("net.frame_write_us", "us", Lower),
    layer("net.frame_read_us", "us", Lower),
    layer("net.msgs", "count", Lower),
    layer("net.msgs_body", "count", Lower),
    layer("net.msgs_vote", "count", Lower),
    layer("net.msgs_other", "count", Lower),
    layer("crypto.sign_us", "us", Lower),
    layer("crypto.verify_us", "us", Lower),
    layer("crypto.signs", "count", Lower),
    layer("crypto.verifies", "count", Lower),
    layer("crypto.merkle_us", "us", Lower),
    layer("core.on_message_us", "us", Lower),
    layer("core.on_message_body_us", "us", Lower),
    layer("core.on_message_vote_us", "us", Lower),
    layer("core.timer_fires", "count", Lower),
    layer("core.fallbacks", "count", Lower),
    layer("store.append_us", "us", Lower),
    layer("store.bytes", "B", Lower),
    layer("exec.apply_us", "us", Lower),
    layer("exec.root_us", "us", Lower),
    layer("trace.cluster_us", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    // Standalone timings of single calls.
    layer("core.admission_us_per_submit", "us", Lower),
    layer("exec.root_us_at_1k", "us", Lower),
    layer("exec.root_us_at_64k", "us", Lower),
    // Derived: the share of a real run's CPU spent outside protocol, codec
    // and application — reactor, syscalls, channels, scheduling.
    layer("net.runtime_cpu_share", "ratio", Lower),
];

/// Measured values by metric name, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, Summary)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: Summary) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Summary)> + '_ {
        self.0.iter().copied()
    }
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`, the metrics being every
/// entry of `defs` at its run value. Errors when a value is missing or not a
/// finite number (a percentile that landed among failed requests).
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    let metrics = defs
        .iter()
        .map(|def| {
            let v = values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?
                .value;
            if !v.is_finite() {
                return Err(format!("metric {} is not a finite number ({v})", def.name));
            }
            Ok(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// Reads one metric's value back out of a result line (what `--selfcheck`
/// does with its child runs' output).
pub fn value_in_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} defined twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    #[test]
    fn result_line_round_trips_and_rejects_holes() {
        let defs = &END_TO_END[..2];
        let mut values = Values::default();
        values.set("tps", Summary::single(123456.789));
        assert!(result_line(defs, &values, 10, 0).is_err(), "missing metric");
        values.set("commit_latency_p50_ms", Summary::single(f64::INFINITY));
        assert!(result_line(defs, &values, 10, 0).is_err(), "non-finite");
        let mut values = Values::default();
        values.set("tps", Summary::single(123456.789));
        values.set("commit_latency_p50_ms", Summary::single(4.25));
        let line = result_line(defs, &values, 10, 1).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"tps\": \
             {\"value\": 123456.789, \"unit\": \"tx/s\"}, \"commit_latency_p50_ms\": \
             {\"value\": 4.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(value_in_line(&line, "tps"), Some(123456.789));
        assert_eq!(value_in_line(&line, "commit_latency_p50_ms"), Some(4.25));
        assert_eq!(value_in_line(&line, "nope"), None);
    }

    /// `BENCHMARK.json` sits outside this package (the contract puts it at
    /// the repo root); when it is there it must list exactly these tables.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        for def in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                def.name,
                def.unit,
                def.better.label(),
                def.bound.unwrap()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for def in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                def.name,
                def.unit,
                def.better.label()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let count = |needle: &str| json.matches(needle).count();
        assert_eq!(
            count("\"better\""),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the tables do not"
        );
        assert_eq!(count("\"why\""), crate::workload::ALL.len());
    }
}
