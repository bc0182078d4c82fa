//! Bench crate helper library (bins and benches live alongside).

#![forbid(unsafe_code)]

/// Peak resident set size of this process, from `/proc/self/status`
/// (`VmHWM`, reported in KiB). `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}
