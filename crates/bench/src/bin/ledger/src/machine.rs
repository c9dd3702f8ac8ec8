//! The machine block every run prints, and the process's peak memory.

use std::process::Command;

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `cores`, kernel threads, rustc, git rev and seed, as one line.
pub fn block(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "machine: cores={cores} kernel_threads={} rustc=\"{}\" git_rev={} seed={seed}",
        actcomp_tensor::pool::configured_threads(),
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// Peak resident set (`VmHWM`) of this process in MB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
