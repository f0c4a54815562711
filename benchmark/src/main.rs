//! The repo benchmark (see `README.md` beside this package).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload once, prints every metric it measured by name with its unit,
//! and ends with the one-line JSON result the driver reads. Any wrong
//! output — diverging ledgers, an accepted submission that never
//! committed, an execution root mismatch — exits non-zero, naming the
//! segment and node.

mod load;
mod loopback;
mod metrics;
mod procfs;
mod run;
mod segment;
mod selfcheck;
mod spans;
mod stats;
mod workload;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  fireledger-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  fireledger-benchmark --selfcheck [--seconds <s>]
  fireledger-benchmark --print-benchmark-json
workloads: order-n4 order-n16 pipeline-n4 clients-n4 crash-n4";

/// Where a run keeps what it writes: beside the executable, so always inside
/// the build directory of the checkout it runs in. Node stores live in a
/// per-process directory under it that is removed when the run ends; the
/// span dump of the last traced run of each workload stays.
fn data_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    exe.parent()
        .expect("an executable lives in a directory")
        .join("bench-data")
}

/// The value following `flag` in `args`.
fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).map(String::as_str)
}

fn json_list(defs: &[MetricDef]) -> String {
    defs.iter()
        .map(|d| {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                d.name,
                d.unit,
                d.better.label()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// `BENCHMARK.json` as the tables define it.
fn benchmark_json() -> String {
    let workloads = workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        metrics::RUN_SECONDS,
        json_list(END_TO_END),
        json_list(PER_LAYER)
    )
}

fn run_once(args: &[String]) -> Result<(), String> {
    let name = value_of(args, "--workload").ok_or("missing --workload")?;
    let workload = workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let parse = |flag: &str| -> Result<u64, String> {
        value_of(args, flag)
            .ok_or_else(|| format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let (seed, seconds) = (parse("--seed")?, parse("--seconds")?);
    let trace = match parse("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    println!("host: {}", procfs::host_fingerprint());
    let scratch = data_dir().join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let spans_path = data_dir().join(format!("spans-{name}.csv"));
    let result = run::run(
        &workload,
        seed,
        seconds as f64,
        trace,
        &scratch,
        &spans_path,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let output = result?;
    let reported = if trace { PER_LAYER } else { END_TO_END };
    for (name, s) in output.values.iter() {
        let def = END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name);
        let unit = def.map_or("", |d| d.unit);
        let note = match def {
            Some(d) if reported.contains(d) => match d.bound {
                Some(b) => format!("  [{} is better, bound {}%]", d.better.label(), b * 100.0),
                None => format!("  [{} is better]", d.better.label()),
            },
            _ => "  [not in this run's result line]".into(),
        };
        println!(
            "metric {name} {unit} value={} min={} max={}{note}",
            s.value, s.min, s.max
        );
    }
    println!(
        "{}",
        metrics::result_line(reported, &output.values, output.attempted, output.failed)?
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.iter().any(|a| a == "--print-benchmark-json") {
        println!("{}", benchmark_json());
        Ok(())
    } else if args.iter().any(|a| a == "--selfcheck") {
        selfcheck::run(value_of(&args, "--seconds"), &data_dir())
    } else if args.is_empty() || args.iter().any(|a| a == "--help") {
        println!("{USAGE}");
        return ExitCode::from(2);
    } else {
        run_once(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
