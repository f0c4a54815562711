//! `--selfcheck`: does the benchmark agree with itself?
//!
//! Two questions, both about the *same code*:
//!
//! 1. The traced loop's counts must repeat **exactly** across two runs of
//!    one seed (run in-process).
//! 2. Every end-to-end metric of every workload must repeat within its
//!    bound: each workload is run twice with one seed and once with
//!    another, as child processes (one process = one run, as the driver
//!    does it). The spread between the two same-seed runs is printed
//!    against the metric's bound and must not exceed it — twice: a pair that
//!    exceeds a bound is run again, and only a metric that exceeds it in
//!    both pairs fails, which tells a bound set too tight from one stalled
//!    segment. The other seed is printed beside them to show how much the
//!    inputs matter. The bounds in `metrics::END_TO_END` are set from these
//!    spreads and from ten-seed sweeps and are never below them.

use crate::loopback;
use crate::metrics::{value_in_line, END_TO_END, RUN_SECONDS};
use crate::workload;
use std::path::Path;
use std::process::Command;

const SEED_A: u64 = 101;
const SEED_B: u64 = 202;

/// Runs one workload in a child process and returns its result line.
fn child_run(name: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{name} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{name} seed {seed} printed nothing"))
}

/// Prints, per end-to-end metric, the spread between two runs of one seed
/// against the metric's bound; returns a description of each metric whose
/// spread exceeds its bound.
fn same_seed_spreads(
    workload: &str,
    label: &str,
    first: &str,
    second: &str,
) -> Result<Vec<String>, String> {
    let mut exceeded = Vec::new();
    for def in END_TO_END {
        let value = |line: &str| {
            value_in_line(line, def.name)
                .ok_or_else(|| format!("{workload}: no {} in {line}", def.name))
        };
        let (x, y) = (value(first)?, value(second)?);
        let spread = (x - y).abs() / ((x + y) / 2.0);
        let bound = def.bound.expect("end-to-end metrics have bounds");
        let verdict = if spread <= bound { "ok" } else { "EXCEEDED" };
        println!(
            "  {workload} {} [{}]{label}: seed {SEED_A}: {x} and {y}, spread {:.2}% of bound {:.0}% {verdict}",
            def.name,
            def.unit,
            spread * 100.0,
            bound * 100.0
        );
        if spread > bound {
            exceeded.push(format!(
                "{workload} {}: same-seed spread exceeds the {:.0}% bound",
                def.name,
                bound * 100.0
            ));
        }
    }
    Ok(exceeded)
}

pub fn run(seconds: Option<&str>, data_dir: &Path) -> Result<(), String> {
    let seconds = match seconds {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None => RUN_SECONDS,
    };
    let mut violations = Vec::new();

    println!("selfcheck 1/2: the traced loop's counts repeat exactly");
    let store_dir = data_dir.join(format!("selfcheck-{}", std::process::id()));
    for w in workload::ALL {
        let a = loopback::run(&w, SEED_A, w.loop_blocks, false, &store_dir)?;
        let b = loopback::run(&w, SEED_A, w.loop_blocks, false, &store_dir)?;
        let verdict = if a.counts == b.counts {
            "exact"
        } else {
            "DIFFER"
        };
        println!("  {}: {verdict}: {:?}", w.name, a.counts);
        if a.counts != b.counts {
            println!("  {}: second run:   {:?}", w.name, b.counts);
            violations.push(format!("{}: loop counts differ between two runs", w.name));
        }
    }

    println!("selfcheck 2/2: end-to-end metrics repeat within their bounds ({seconds} s runs)");
    for w in workload::ALL {
        let pair = |label: &str| -> Result<Vec<String>, String> {
            let first = child_run(w.name, SEED_A, seconds)?;
            let second = child_run(w.name, SEED_A, seconds)?;
            same_seed_spreads(w.name, label, &first, &second)
        };
        let mut exceeded = pair("")?;
        if !exceeded.is_empty() {
            // One pair is two single runs: a stall in one segment of one of
            // them is an outlier, not a bound set too tight. Only a metric
            // that exceeds its bound in a second pair as well fails.
            let again = pair(" (confirming)")?;
            exceeded.retain(|metric| again.contains(metric));
        }
        violations.extend(exceeded);
        let other = child_run(w.name, SEED_B, seconds)?;
        let values: Vec<String> = END_TO_END
            .iter()
            .filter_map(|def| Some(format!("{} {}", def.name, value_in_line(&other, def.name)?)))
            .collect();
        println!("  {} seed {SEED_B}: {}", w.name, values.join(", "));
    }
    if violations.is_empty() {
        println!("selfcheck passed");
        Ok(())
    } else {
        Err(violations.join("; "))
    }
}
