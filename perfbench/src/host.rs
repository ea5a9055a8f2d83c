//! The host manifest (cores, compiler, commit) and the process's peak
//! resident set, read from `/proc/self`.

use std::fs;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The compiler that built the benchmark (captured by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The commit of the checkout, read from `.git` in the working directory;
/// `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_owned()
        } else {
            head.to_owned()
        };
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_owned()))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Resets the peak-RSS mark (`VmHWM`) to the current RSS. Returns false
/// where the kernel refuses, in which case the peak covers the whole
/// process lifetime.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
