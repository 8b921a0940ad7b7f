//! The shared perf-measurement workload.
//!
//! `pcc-bench --bench micro` (BENCH.json) and the standalone
//! `perf_probe` example quote the same "apples-to-apples" number; both
//! take the scenario list and the timing loop from here so the two can
//! never desynchronize.

use std::time::Instant;

use pcc_simnet::shaper::ShaperConfig;
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_simnet::trace::LinkTrace;
use pcc_transport::ReportMode;

use crate::dc::run_rack_incast;
use crate::protocol::Protocol;
use crate::setup::{run_dumbbell, run_single, FlowPlan, LinkSetup};
use crate::vary::{run_trace, trace_rtt};
use crate::workload::{churn_benchmark_config, run_churn};

/// The reference full-simulation scenarios: 5 simulated seconds each of
/// PCC, CUBIC, and BBR alone on the 100 Mbps / 30 ms / 3×BDP dumbbell.
pub fn reference_scenarios() -> Vec<(&'static str, Protocol)> {
    vec![
        (
            "full_sim_5s_pcc_100mbps",
            Protocol::pcc_default(SimDuration::from_millis(30)),
        ),
        ("full_sim_5s_cubic_100mbps", Protocol::Tcp("cubic")),
        ("full_sim_5s_bbr_100mbps", Protocol::Named("bbr".into())),
    ]
}

/// Simulated seconds each reference scenario runs for.
pub const REFERENCE_SIM_SECS: u64 = 5;

/// The trace-driven reference scenario: PCC over the bundled LTE-like
/// trace (schedule expansion + per-step link updates on the hot path),
/// timed exactly like the dumbbell scenarios.
pub fn trace_reference_scenario() -> (&'static str, Protocol) {
    let trace = LinkTrace::builtin("lte").expect("bundled");
    (
        "full_sim_5s_pcc_lte_trace",
        Protocol::pcc_default(trace_rtt(&trace)),
    )
}

/// Time `proto` over the bundled LTE trace for [`REFERENCE_SIM_SECS`]
/// simulated seconds: best-of-`runs` wall clock in milliseconds plus the
/// deterministic event count. Companion of [`time_reference_scenario`]
/// for the trace-driven workload.
pub fn time_trace_scenario(proto: &Protocol, runs: usize) -> (f64, u64) {
    let trace = LinkTrace::builtin("lte").expect("bundled");
    best_of(runs, || {
        run_trace(
            proto.clone(),
            &trace,
            SimDuration::from_secs(REFERENCE_SIM_SECS),
            1,
            ShaperConfig::default(),
        )
        .report
        .events_processed
    })
}

/// Time the multi-hop reference workload: an 8-to-1 rack-scale incast of
/// PCC on a k=4 fat-tree (the topology subsystem's routing, multi-hop
/// paths, and ToR queueing on the hot path). Returns `(best_wall_ms,
/// events, sim_secs)`; the simulated seconds are the (deterministic)
/// slowest flow completion, since the workload ends when the last block
/// lands rather than at a fixed horizon.
pub fn time_dc_incast_scenario(runs: usize) -> (f64, u64, f64) {
    let mut sim_secs = 0.0;
    let (wall_ms, events) = best_of(runs, || {
        let r = run_rack_incast(4, &|rtt| Protocol::pcc_default(rtt), 8, 256 * 1024, 1);
        sim_secs = r
            .run
            .report
            .flows
            .iter()
            .filter_map(|f| f.fct())
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max);
        r.run.report.events_processed
    });
    (wall_ms, events, sim_secs)
}

/// Flows the `churn_100k` benchmark scenario admits.
pub const CHURN_BENCH_FLOWS: u64 = 100_000;

/// Time the churn-heavy regime: [`CHURN_BENCH_FLOWS`] cache-follower
/// flows at 80% load through the recycling slot arena (the workload
/// generator, per-timestamp arrival batching, and slot recycling all on
/// the hot path). Returns `(best_wall_ms, events, sim_secs)`; the
/// simulated seconds are the (deterministic) horizon of the run. The
/// flow count is parameterized so tests can time a scaled-down churn
/// without waiting on the full benchmark regime.
pub fn time_churn_scenario(flows: u64, runs: usize) -> (f64, u64, f64) {
    let mut sim_secs = 0.0;
    let (wall_ms, events) = best_of(runs, || {
        let r = run_churn(churn_benchmark_config(flows, 1));
        assert_eq!(
            r.churn.arrivals,
            r.churn.completions + r.churn.stalls + r.churn.live_at_end,
            "churn conservation holds under benchmarking"
        );
        sim_secs = r.horizon_secs;
        r.events_processed
    });
    (wall_ms, events, sim_secs)
}

/// Time the complete reference workload — the three dumbbell scenarios,
/// the trace-driven one, the fat-tree incast, and the 100k-flow churn
/// regime — returning `(name, best_wall_ms, events, sim_secs)` per
/// scenario. The single list both `pcc-bench --bench micro` and the
/// `perf_probe` example iterate, so the two tools can never measure
/// different workloads.
pub fn time_all_scenarios(runs: usize) -> Vec<(&'static str, f64, u64, f64)> {
    let mut timed: Vec<(&'static str, f64, u64, f64)> = reference_scenarios()
        .into_iter()
        .map(|(name, proto)| {
            let (wall_ms, events) = time_reference_scenario(&proto, runs);
            (name, wall_ms, events, REFERENCE_SIM_SECS as f64)
        })
        .collect();
    let (trace_name, trace_proto) = trace_reference_scenario();
    let (wall_ms, events) = time_trace_scenario(&trace_proto, runs);
    timed.push((trace_name, wall_ms, events, REFERENCE_SIM_SECS as f64));
    let (wall_ms, events, sim_secs) = time_dc_incast_scenario(runs);
    timed.push(("dc_incast_ft4_pcc_8to1", wall_ms, events, sim_secs));
    let (wall_ms, events, sim_secs) = time_churn_scenario(CHURN_BENCH_FLOWS, runs);
    timed.push(("churn_100k", wall_ms, events, sim_secs));
    timed
}

/// Best-of-`runs` wall clock in milliseconds of `workload`, plus the
/// (deterministic) simulator event count it returns. The one timing
/// loop behind every reference number, so the methodology can never
/// diverge between scenarios.
fn best_of(runs: usize, mut workload: impl FnMut() -> u64) -> (f64, u64) {
    let mut best_ms = f64::MAX;
    let mut events = 0u64;
    for _ in 0..runs.max(1) {
        #[expect(
            clippy::disallowed_methods,
            reason = "this IS the benchmark clock: perf harness measures wall time of deterministic runs; the measured simulation never sees it"
        )]
        let t0 = Instant::now();
        events = workload();
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
    }
    (best_ms, events)
}

/// Time `proto` on the reference dumbbell for [`REFERENCE_SIM_SECS`]
/// simulated seconds: best-of-`runs` wall clock in milliseconds, plus
/// the (deterministic) simulator event count of one run.
pub fn time_reference_scenario(proto: &Protocol, runs: usize) -> (f64, u64) {
    best_of(runs, || {
        run_single(
            proto.clone(),
            LinkSetup::new(100e6, SimDuration::from_millis(30), 375_000),
            SimDuration::from_secs(REFERENCE_SIM_SECS),
            1,
        )
        .report
        .events_processed
    })
}

/// The off-path twin of [`time_reference_scenario`]: identical dumbbell,
/// identical protocol, but the engine withholds per-ACK callbacks and
/// feeds the algorithm 1-RTT batched reports. Benched side by side with
/// the per-ACK number, the pair quotes the engine-cost delta of the
/// off-path control plane on a full simulation.
pub fn time_batched_scenario(proto: &Protocol, runs: usize) -> (f64, u64) {
    let rtt = SimDuration::from_millis(30);
    best_of(runs, || {
        run_dumbbell(
            LinkSetup::new(100e6, rtt, 375_000),
            vec![FlowPlan::new(proto.clone(), rtt).reporting(ReportMode::batched_rtt())],
            SimTime::from_secs(REFERENCE_SIM_SECS),
            1,
        )
        .report
        .events_processed
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_incast_scenario_is_deterministic() {
        let (_, events_a, sim_a) = time_dc_incast_scenario(1);
        let (_, events_b, sim_b) = time_dc_incast_scenario(1);
        assert_eq!(events_a, events_b, "same seed, same event count");
        assert_eq!(sim_a.to_bits(), sim_b.to_bits(), "same completion time");
        assert!(sim_a > 0.0, "all incast flows complete");
    }

    #[test]
    fn churn_scenario_is_deterministic_at_small_n() {
        let (_, events_a, sim_a) = time_churn_scenario(150, 1);
        let (_, events_b, sim_b) = time_churn_scenario(150, 1);
        assert_eq!(events_a, events_b, "same seed, same event count");
        assert_eq!(sim_a.to_bits(), sim_b.to_bits(), "same horizon");
        assert!(events_a > 0);
    }

    #[test]
    fn reference_workload_is_deterministic() {
        let (_, events_a) = time_reference_scenario(&Protocol::Tcp("cubic"), 1);
        let (_, events_b) = time_reference_scenario(&Protocol::Tcp("cubic"), 1);
        assert_eq!(events_a, events_b, "same seed, same event count");
        assert!(events_a > 0);
        assert_eq!(reference_scenarios().len(), 3);
    }
}
