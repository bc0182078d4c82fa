//! Bench crate helper library (bins and benches live alongside).

#![forbid(unsafe_code)]

use std::str::FromStr;

/// Positional argument `i`, parsed: `None` when it is absent. One that is
/// present but does not parse prints `usage` to stderr and exits with
/// status 2, before anything runs.
pub fn arg<T: FromStr>(i: usize, usage: &str) -> Option<T> {
    let raw = std::env::args().nth(i)?;
    match raw.parse() {
        Ok(value) => Some(value),
        Err(_) => {
            eprintln!("usage: {usage}");
            std::process::exit(2)
        }
    }
}

/// Peak resident set size of this process, from `/proc/self/status`
/// (`VmHWM`, reported in KiB). `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}
