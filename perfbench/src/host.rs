//! The host block printed with every result: what the numbers were
//! measured on and with.

use sdl_conf::{to_json, Value};
use std::path::Path;
use std::process::Command;

/// One JSON object describing the host, the toolchain, the source, the
/// workload seed and a digest of the inputs it generated.
pub fn block(workload: &str, seed: u64, inputs: &str) -> String {
    let mut v = Value::map();
    v.set("workload", workload);
    v.set("seed", seed.to_string());
    v.set("inputs_fnv64", inputs);
    v.set("nproc", std::thread::available_parallelism().map(|n| n.get() as i64).unwrap_or(0));
    v.set("cpu_model", cpu_model().unwrap_or_else(|| "unknown".into()));
    v.set("rustc", rustc_version().unwrap_or_else(|| "unknown".into()));
    v.set("target_cpu", target_cpu(Path::new(".")).unwrap_or_else(|| "default".into()));
    v.set("git_commit", git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()));
    let mut host = Value::map();
    host.set("host", v);
    to_json(&host)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("-V").output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The `target-cpu` the checkout's `.cargo/config.toml` builds with.
fn target_cpu(root: &Path) -> Option<String> {
    let config = std::fs::read_to_string(root.join(".cargo/config.toml")).ok()?;
    let at = config.find("target-cpu=")? + "target-cpu=".len();
    let value: String = config[at..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || "-_.".contains(*c))
        .collect();
    (!value.is_empty()).then_some(value)
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `None` outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// Peak resident set size of this process, MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
