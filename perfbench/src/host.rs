//! What the host charges the benchmark process, read from `/proc`, and
//! the host block printed with every result set.

use std::fs;
use std::process::Command;

/// Clock ticks per second of the `/proc` CPU counters: `USER_HZ`, which
/// Linux fixes at 100 on every architecture it exports them on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds the whole process has used, every thread
/// that ever ran in it included (`utime` + `stime` of `/proc/self/stat`);
/// 0 if the file cannot be read.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after its closing one, `state` first, so
    // `utime` and `stime` (fields 14 and 15) are the 12th and 13th there.
    let ticks: f64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().skip(11).take(2))
        .into_iter()
        .flatten()
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host block: enough to tell two recordings' machines apart.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, `"unknown"` outside a git checkout.
    pub commit: String,
    /// `/proc/loadavg` when the run started.
    pub loadavg: String,
}

impl HostInfo {
    /// Read the host block now.
    #[must_use]
    pub fn read() -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned());
        HostInfo {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "--short", "HEAD"]),
            loadavg: fs::read_to_string("/proc/loadavg")
                .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        let before = cpu_seconds();
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 100 {
            std::hint::spin_loop();
        }
        let used = cpu_seconds() - before;
        assert!(
            (0.05..30.0).contains(&used),
            "process CPU counters unreadable: {used} s used in 0.1 s of spinning"
        );
        assert!(peak_rss_mib() > 0.5, "VmHWM unreadable");
        assert!(HostInfo::read().nproc >= 1);
    }
}
