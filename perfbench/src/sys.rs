//! Process counters and the machine context recorded with every result.

use std::path::Path;
use std::process::Command;

/// Linux reports process times in clock ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of this process so far, all threads
/// included (`/proc/self/stat` fields 14 and 15).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    // After the name, field 3 (state) is index 0, so 14 and 15 sit at 11 and 12.
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine and build a result was measured on.
#[derive(Debug, Clone)]
pub struct Context {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub source_digest: String,
}

impl Context {
    /// Collect the context. Runs `rustc`, and `git` when the working
    /// directory is a git checkout, once each and waits for them; a
    /// checkout without git reports its commit as `none` and is
    /// identified by `source_digest` instead.
    pub fn collect() -> Context {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                let (key, value) = l.split_once(':')?;
                matches!(key.trim(), "model name" | "Model" | "cpu model")
                    .then(|| value.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        Context {
            nproc: nproc(),
            cpu_model,
            rustc: command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_commit: Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "none".into()),
            source_digest: source_digest(Path::new(".")),
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a digest over the paths and contents of the library sources
/// (`crates/`) and `Cargo.lock` under `root`, visited in sorted order:
/// it names the code measured even where no git metadata exists.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut bytes = Vec::new();
    for path in &files {
        if let Ok(body) = std::fs::read(path) {
            let rel = path.strip_prefix(root).unwrap_or(path);
            bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&body);
        }
    }
    format!("{:016x}", tlscope::durable::fnv1a64(&bytes))
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_positive() {
        // Burn a little CPU so the tick counter has moved.
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
