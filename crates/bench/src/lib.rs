//! # pcc-bench — benchmark harnesses
//!
//! * `benches/micro.rs` — micro-benchmarks of the simulator's hot paths
//!   (event queue, queue disciplines, utility evaluation) plus
//!   full-simulation throughput, and the machine-readable `BENCH.json`
//!   perf baseline (see [`report`]).
//! * `benches/experiments.rs` — regenerates every table and figure of the
//!   paper (delegates to `pcc-experiments`; `harness = false`).
//!
//! Run everything with `cargo bench --workspace`.
//!
//! The timing harness here is a deliberately small median-of-runs loop
//! (the environment has no network access, so Criterion is unavailable);
//! it reports median and min wall-clock per iteration.

pub mod report;

use std::time::{Duration, Instant};

/// Measure `f`, printing median/min per-iteration time.
///
/// Runs a short calibration to pick an iteration count that fills
/// ~`target_ms` per sample, then takes `samples` samples and reports the
/// median and the minimum.
#[expect(
    clippy::disallowed_methods,
    reason = "the benchmark clock: times deterministic work, never feeds it"
)]
pub fn bench(name: &str, samples: usize, target_ms: u64, mut f: impl FnMut()) {
    // Calibrate.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(100));
    let target = Duration::from_millis(target_ms.max(1));
    let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;

    let mut per_iter: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(t.elapsed() / iters as u32);
    }
    per_iter.sort();
    let median = per_iter[per_iter.len() / 2];
    let min = per_iter[0];
    println!(
        "{name:<32} median {median:>12.3?}   min {min:>12.3?}   ({iters} iters/sample, {} samples)",
        per_iter.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut count = 0u64;
        bench("noop", 3, 1, || {
            count += 1;
        });
        assert!(count > 0);
    }
}
