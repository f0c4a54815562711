//! What the operating system says about this process, read from `/proc` —
//! the "measured outside the program" half of the per-layer metrics — and
//! the host fingerprint printed with every run.

use std::fs;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI the toolchain targets (it is a userspace ABI
/// constant, independent of the kernel's internal `CONFIG_HZ`).
const USER_HZ: f64 = 100.0;

/// One reading of the process-wide counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSample {
    /// User + system CPU time of the whole process, microseconds.
    pub cpu_us: f64,
    /// Resident set size, bytes.
    pub rss_bytes: u64,
    /// Peak resident set size so far, bytes.
    pub peak_rss_bytes: u64,
    /// Live threads.
    pub threads: u64,
    /// Voluntary + involuntary context switches summed over all threads.
    pub ctx_switches: u64,
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// microseconds. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_us(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime field 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1e6 / USER_HZ)
}

/// The numeric value of a `Key:   123 kB`-style line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

/// Context switches recorded in one thread's `status` text.
fn ctx_switches_of(status: &str) -> u64 {
    parse_status_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + parse_status_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Reads the current process's counters. Threads that exit between two
/// samples take their context-switch counts with them; the clusters the
/// benchmark measures keep a fixed thread set inside a window.
pub fn sample() -> ProcSample {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let ctx_switches = fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .flatten()
                .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
                .map(|s| ctx_switches_of(&s))
                .sum()
        })
        .unwrap_or(0);
    ProcSample {
        cpu_us: parse_stat_cpu_us(&stat).unwrap_or(0.0),
        rss_bytes: parse_status_field(&status, "VmRSS").unwrap_or(0) * 1024,
        peak_rss_bytes: parse_status_field(&status, "VmHWM").unwrap_or(0) * 1024,
        threads: parse_status_field(&status, "Threads").unwrap_or(0),
        ctx_switches,
    }
}

/// The first `model name` of `/proc/cpuinfo` text and its processor count.
pub fn parse_cpuinfo(cpuinfo: &str) -> (String, usize) {
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let processors = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    (model, processors)
}

/// Logical processors the benchmark may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The host fingerprint: everything a reader needs to decide whether two
/// runs are comparable.
pub fn host_fingerprint() -> String {
    let (model, processors) =
        parse_cpuinfo(&fs::read_to_string("/proc/cpuinfo").unwrap_or_default());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".into());
    format!(
        "nproc={processors} available_parallelism={} cpu=\"{model}\" {rustc}",
        available_parallelism()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // Field 2 contains spaces and a ')' — utime=250 stime=50 ticks.
        let stat =
            "1234 (fire ledger) x) S 1 1234 1234 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 \
                    100 123456 789 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_us(stat), Some(3_000_000.0));
        assert_eq!(parse_stat_cpu_us("garbage"), None);
        assert_eq!(parse_stat_cpu_us("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tbench\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nThreads:\t12\n\
                      voluntary_ctxt_switches:\t40\nnonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(parse_status_field(status, "VmRSS"), Some(102_400));
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_field(status, "Threads"), Some(12));
        assert_eq!(parse_status_field(status, "Missing"), None);
        // `voluntary_…` must not match inside `nonvoluntary_…`.
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(40)
        );
        assert_eq!(ctx_switches_of(status), 42);
    }

    #[test]
    fn cpuinfo_yields_model_and_count() {
        let info = "processor\t: 0\nmodel name\t: Test CPU @ 2.10GHz\n\nprocessor\t: 1\n\
                    model name\t: Test CPU @ 2.10GHz\n";
        assert_eq!(parse_cpuinfo(info), ("Test CPU @ 2.10GHz".to_string(), 2));
        assert_eq!(parse_cpuinfo(""), ("unknown".to_string(), 0));
    }

    #[test]
    fn live_sample_reads_this_process() {
        let s = sample();
        assert!(s.threads >= 1);
        assert!(s.rss_bytes > 0 && s.peak_rss_bytes >= s.rss_bytes);
    }
}
