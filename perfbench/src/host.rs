//! Host readings: process CPU time from `/proc`, and the host-noise record
//! kept next to every run. The noise record is metadata only; no metric is
//! ever adjusted by it.

use std::time::Instant;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf takes a plain integer name and has no preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User plus system CPU seconds of process `pid` (all its threads, live or
/// exited), from `/proc/<pid>/stat`.
pub fn cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / clock_ticks_per_s())
}

/// CPU seconds of this process.
pub fn self_cpu_s() -> f64 {
    cpu_s(std::process::id()).unwrap_or(0.0)
}

/// Steal ticks summed over all CPUs, from `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds for a fixed single-thread integer loop: a reference whose
/// work never changes, so its timing tracks only the host.
pub fn reference_spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000_000u64 {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Host state at one instant.
pub struct HostSample {
    steal: Option<u64>,
    loadavg: String,
    spin_ms: f64,
}

impl HostSample {
    pub fn take() -> Self {
        HostSample {
            steal: steal_ticks(),
            loadavg: loadavg(),
            spin_ms: reference_spin_ms(),
        }
    }
}

/// The host-noise record of one run, as a JSON object.
pub fn noise_record(before: &HostSample, after: &HostSample) -> String {
    let steal = match (before.steal, after.steal) {
        (Some(a), Some(b)) => (b.saturating_sub(a)).to_string(),
        _ => "null".into(),
    };
    format!(
        "{{\"nproc\":{},\"steal_ticks_delta\":{steal},\"loadavg_before\":\"{}\",\"loadavg_after\":\"{}\",\
         \"ref_spin_ms_before\":{:.3},\"ref_spin_ms_after\":{:.3},\"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
        nproc(),
        before.loadavg,
        after.loadavg,
        before.spin_ms,
        after.spin_ms,
        env_or("PERFBENCH_RUSTC", "unknown"),
        env_or("PERFBENCH_GIT_REV", "unknown"),
    )
}

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key)
        .unwrap_or_else(|_| default.into())
        .replace(['"', '\\'], "")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_time_is_readable_and_grows() {
        let a = self_cpu_s();
        let _ = reference_spin_ms();
        let mut x = 0u64;
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(self_cpu_s() > a);
    }
}
