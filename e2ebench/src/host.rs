//! What every result records about where it was measured, so numbers from
//! different hosts are never compared blindly.

use std::fs;

/// One line: commit, build profile, cores, CPU model and L2 size.
pub fn describe() -> String {
    format!(
        "commit={} profile={} nproc={} cpu=\"{}\" l2={}",
        commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        l2_size(),
    )
}

/// `HEAD` of the git checkout in the working directory, read from `.git`
/// without running git; `none` outside a git checkout.
pub fn commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn l2_size() -> String {
    fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}
