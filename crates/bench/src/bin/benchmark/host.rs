//! What the host itself contributes: the process's peak memory, and two
//! noise readings that let a reader tell a slow machine from a slow
//! program (time this thread spent waiting for a CPU, and the time of a
//! fixed calibration loop). The noise readings are context, not metrics.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds this thread has spent runnable but waiting for a CPU
/// (the second field of `/proc/thread-self/schedstat`).
pub fn run_queue_wait_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().nth(1)?.parse().ok()
}

/// Seconds taken by a fixed, allocation-free integer loop: the same
/// work on every run, so its time moves only with the host.
pub fn calibration_s() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}
