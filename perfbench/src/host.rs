//! Host and run fingerprint, and peak resident memory.

use syndcim_engine::{default_threads, SimdPolicy};
use syndcim_telemetry as telemetry;

use crate::json::Json;

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`. `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Revision of the checkout when it is a git work tree; benchmark
/// checkouts without `.git` report `"unavailable"`.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unavailable".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

fn env_or_unset(var: &str) -> String {
    std::env::var(var).unwrap_or_else(|_| "unset".to_string())
}

/// What ran and where: cores, CPU, the SIMD words the engine picks for
/// 256- and 512-lane batches under the `SYNDCIM_SIMD` policy, worker
/// count, seed, revision and the telemetry mode.
///
/// # Errors
///
/// A `SYNDCIM_SIMD` value the engine rejects (the run would fail on its
/// first engine call anyway).
pub fn fingerprint(seed: u64) -> Result<Json, syndcim_engine::EngineError> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let policy = SimdPolicy::from_env()?;
    Ok(Json::obj([
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::from(cpu_model())),
        ("simd_policy", Json::from(format!("{policy:?}"))),
        ("simd_env", Json::from(env_or_unset(SimdPolicy::ENV))),
        ("simd_backend_256_lanes", Json::from(policy.select(256)?.name())),
        ("simd_backend_512_lanes", Json::from(policy.select(512)?.name())),
        ("workers", Json::from(default_threads(usize::MAX))),
        ("seed", Json::from(seed)),
        ("git_revision", Json::from(git_revision())),
        ("telemetry_mode", Json::from(format!("{:?} (forced)", telemetry::mode()))),
        ("syndcim_trace_env", Json::from(env_or_unset("SYNDCIM_TRACE"))),
    ]))
}
