//! `pcc_convergence`: the PCC cell of Fig. 12. Four long-lived PCC flows
//! with per-ACK feedback start 10 s apart on the 100 Mbps / 30 ms dumbbell
//! with a one-BDP drop-tail buffer (`run_convergence`'s topology), for
//! 60 simulated seconds.

use std::time::{Duration, Instant};

use pcc_scenarios::dynamics::run_convergence;
use pcc_scenarios::{LinkSetup, Protocol};
use pcc_simnet::prelude::*;

use crate::host::{self, median};
use crate::report::{Metrics, Outcome};
use crate::sim::{self, TracedRun};
use crate::trace::{self, Layer};

const FLOWS: usize = 4;
const STAGGER: SimDuration = SimDuration::from_secs(10);
const HORIZON: SimDuration = SimDuration::from_secs(60);
const RTT: SimDuration = SimDuration::from_millis(30);
const SAMPLE: SimDuration = SimDuration::from_secs(1);

fn protocol() -> Protocol {
    Protocol::pcc_default(RTT)
}

/// The window where all flows are active, as `ConvergenceResult` takes
/// it: from two samples after the last start to the horizon.
fn all_active() -> (SimTime, SimTime) {
    let from = (STAGGER * (FLOWS as u64 - 1)).as_secs_f64() as u64 + 2;
    (SimTime::from_secs(from), SimTime::ZERO + HORIZON)
}

/// Set-up: the registry, the topology and the network with its flows.
fn build(seed: u64, traced: bool) -> (Simulation, LinkId) {
    let flows: Vec<(Protocol, SimTime)> = (0..FLOWS)
        .map(|i| (protocol(), SimTime::ZERO + STAGGER * i as u64))
        .collect();
    let setup = LinkSetup::new(100e6, RTT, 375_000);
    sim::dumbbell(&setup, &flows, seed, SAMPLE, traced)
}

/// Run a rebuilt network; returns the report, the bottleneck and the
/// `run_until` host seconds.
fn run_rebuilt(seed: u64, traced: bool) -> (SimReport, LinkId, f64) {
    let (net, bottleneck) = build(seed, traced);
    let t0 = Instant::now();
    let report = if traced {
        trace::timed(Layer::Sim, || net.run_until(SimTime::ZERO + HORIZON))
    } else {
        net.run_until(SimTime::ZERO + HORIZON)
    };
    (report, bottleneck, t0.elapsed().as_secs_f64())
}

fn losses(report: &SimReport) -> u64 {
    report.flows.iter().map(|f| f.detected_losses).sum()
}

/// End-to-end run: `run_convergence` repeated for `seconds`.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut walls, mut cpu_per_gb, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed() < seconds {
        setups.extend(host::time_setup(5, || build(seed, false), drop));
        let cpu0 = host::thread_cpu_ns();
        let t0 = Instant::now();
        let r = run_convergence(protocol, FLOWS, STAGGER, HORIZON, seed);
        walls.push(t0.elapsed().as_secs_f64());
        let cpu_s = (host::thread_cpu_ns() - cpu0) as f64 / 1e9;
        let report = &r.inner.report;
        let bytes: u64 = report.flows.iter().map(|f| f.goodput_bytes).sum();
        cpu_per_gb.push(cpu_s / (bytes as f64 / 1e9));
        let (from, to) = all_active();
        let goodput: f64 = r
            .inner
            .flows
            .iter()
            .map(|&f| report.avg_goodput_mbps(f, from, to))
            .sum();
        // The bottleneck stays full once every flow is active, every flow
        // moves data, and the shallow buffer makes the loss path run.
        let ok = goodput >= 90.0
            && report.flows.iter().all(|f| f.goodput_bytes > 0)
            && losses(report) > 0;
        let outputs = sim::outputs(report);
        let repeat = first.as_ref().is_none_or(|(o, _, _, _)| *o == outputs);
        out.attempted += 1;
        if !(ok && repeat) {
            out.failed += 1;
            out.correct = false;
        }
        if first.is_none() {
            first = Some((outputs, goodput, r.jain_at_scale(1), r.mean_stddev()));
        }
    }
    let (outputs, goodput, jain, stddev) = first.expect("at least one run");
    // The set-up measured above must be the set-up of the run measured.
    out.correct &= sim::outputs(&run_rebuilt(seed, false).0) == outputs;
    println!(
        "pcc_convergence: {} events, all-active goodput {goodput:.3} Mbps, \
         jain index (1 s) {jain:.4}, mean per-flow rate stddev {stddev:.3} Mbps",
        outputs.0
    );
    let m = &mut out.metrics;
    m.set("wall_s", median(&walls));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set("goodput_mbps", goodput);
    m.set("cpu_s_per_gb", median(&cpu_per_gb));
    out
}

/// Traced run: untraced and traced rebuilds in pairs for `seconds`, each
/// checked against `run_convergence`'s outputs.
pub fn run_traced(seed: u64, seconds: Duration) -> Outcome {
    let want = sim::outputs(
        &run_convergence(protocol, FLOWS, STAGGER, HORIZON, seed)
            .inner
            .report,
    );
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < 3 || started.elapsed() < seconds {
        let (plain, _, plain_s) = run_rebuilt(seed, false);
        let cal = trace::calibrate();
        let (traced, bottleneck, traced_s) = run_rebuilt(seed, true);
        let totals = trace::take();
        out.attempted += 1;
        if sim::outputs(&plain) != want || sim::outputs(&traced) != want {
            out.failed += 1;
            out.correct = false;
        }
        let mut m = Metrics::default();
        sim::layer_metrics(
            &mut m,
            &TracedRun {
                totals,
                untraced_s: plain_s,
                traced_s,
                events: traced.events_processed,
                losses: losses(&traced),
                queue: traced.links[bottleneck.index()].queue,
            },
            &cal,
        );
        runs.push(m);
    }
    out.metrics = Metrics::median_of(&runs);
    crate::finish_traced(&mut out);
    out
}
