//! The host and build record printed with every result.

use crate::report::json_str;

/// CPU model from `/proc/cpuinfo` (`"unknown"` elsewhere).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The x86 features the ISA-dispatch work depends on, as detected at run time.
fn isa_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::is_x86_feature_detected!("avx2")),
            ("fma", std::is_x86_feature_detected!("fma")),
            ("avx512f", std::is_x86_feature_detected!("avx512f")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![("avx2", false), ("fma", false), ("avx512f", false)]
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; `0.0` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU time of the host, in clock ticks, from
/// the first line of `/proc/stat`; `None` where the kernel has no such file.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The host's CPU-time counters at one instant, for [`steal_pct`].
pub struct CpuMark(Option<(u64, u64)>);

impl CpuMark {
    /// Read the counters now.
    pub fn now() -> Self {
        CpuMark(cpu_ticks())
    }

    /// Share of the host's CPU time since this mark that the hypervisor
    /// gave to other guests (steal), in percent; `0.0` where unreported.
    pub fn steal_pct(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Threads the host offers this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One JSON object describing the host, the build, the run's arguments and
/// `extra` workload facts (sample counts, limits).
pub fn record(workload: &str, seed: u64, trace: bool, extra: &[(String, String)]) -> String {
    let mut fields = vec![
        ("workload".to_string(), json_str(workload)),
        ("seed".to_string(), seed.to_string()),
        ("trace".to_string(), u8::from(trace).to_string()),
        ("cpu_model".to_string(), json_str(&cpu_model())),
        ("nproc".to_string(), nproc().to_string()),
    ];
    for (name, on) in isa_features() {
        fields.push((name.to_string(), on.to_string()));
    }
    fields.push(("rustc".to_string(), json_str(env!("PERFBENCH_RUSTC"))));
    fields.push(("build_profile".to_string(), json_str(env!("PERFBENCH_PROFILE"))));
    fields.extend(extra.iter().cloned());
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{\"record\": {{{}}}}}", body.join(", "))
}
