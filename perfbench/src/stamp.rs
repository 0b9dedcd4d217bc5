//! What every result is stamped with: the machine, the source revision and
//! the build.

use std::path::Path;

/// Worker threads the machine offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git revision of the checkout at `root`, read from `.git` without
/// running git (a checkout that is not a repository reads `unknown`).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    // A packed ref: `<sha> <refname>` lines.
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reset this process's peak resident set size (`VmHWM`) to its current
/// resident set (Linux 4.0 and later), so the next reading covers only what
/// ran since. Returns whether the reset was accepted.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
