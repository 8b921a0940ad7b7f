//! Host measurements: memory and CPU from `/proc`, the calibration loop
//! that lets snapshots from different machines be normalised, and small
//! statistics helpers.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux reports them
/// in `USER_HZ`, which is 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process, every thread that ever
/// ran in it included, in seconds (10 ms resolution).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Time the calling thread has spent on a CPU, in nanoseconds, from the
/// scheduler's own accounting (`/proc/thread-self/schedstat`), which is
/// exact where the tick-based `utime` is not.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Worker threads this host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed CPU-bound loop (integer mixing, no memory traffic), timed as the
/// median of five passes, in milliseconds. Dividing a host time by this
/// figure gives a number comparable across machines.
pub fn calibration_ms() -> f64 {
    let mut passes = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        for i in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        black_box(x);
        passes.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&passes)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Time `samples` set-ups, one at a time, and return each one's seconds.
/// Whatever a set-up returns goes to `teardown` outside the timed region,
/// before the next one starts, so set-up never holds more memory than one
/// instance and `VmHWM` stays the workload's own. Workloads take a few
/// samples after every repetition, so that the median of `setup_s` spans
/// the same stretch of host time as `wall_s`.
pub fn time_setup<T>(
    samples: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let built = black_box(setup());
            let secs = t0.elapsed().as_secs_f64();
            teardown(built);
            secs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        // The scheduler updates a running thread's total at its ticks, so
        // burn well over one tick before reading it again.
        let t0 = thread_cpu_ns();
        let started = Instant::now();
        while started.elapsed().as_millis() < 50 {
            black_box(started);
        }
        assert!(thread_cpu_ns() > t0);
    }
}
