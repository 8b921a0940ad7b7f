//! `churn`: open-loop flow churn. Cache-follower flow sizes arrive as a
//! Poisson process at 80% of a 1 Gbps / 10 ms drop-tail bottleneck, all
//! under CUBIC (`churn_benchmark_config`).
//!
//! The loop is open in simulated time: every arrival is admitted at the
//! instant it is due, whatever the simulator's state, so the generator is
//! never late by construction and each flow's completion time runs from
//! its due time.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use pcc_scenarios::workload::{churn_benchmark_config, ChurnSample};
use pcc_scenarios::{
    install_registry, run_churn, Arrival, ChurnConfig, ChurnReport, FctSummary, Protocol, SizeCdf,
};
use pcc_simnet::prelude::*;
use pcc_transport::FlowSize;

use crate::host::{self, median};
use crate::report::{Metrics, Outcome};
use crate::sim::{self, TracedRun};
use crate::trace::{self, Layer, TimedDriver};

/// Flows per run: enough for 20 flows beyond the 99.9th percentile.
pub const FLOWS: u64 = 20_000;

/// The workload generator's RNG stream salts. `run_churn` keeps them
/// private; the fidelity check against its fingerprint fails if these
/// copies ever drift.
const ARRIVAL_STREAM: u64 = 0x574C_4152_0000_0000;
const SIZE_STREAM: u64 = 0x574C_535A_0000_0000;

fn config(seed: u64) -> ChurnConfig {
    churn_benchmark_config(FLOWS, seed)
}

/// `run_churn`'s driver, rebuilt so that each flow it admits can be built
/// with timing decorators.
struct Driver {
    protocol: Protocol,
    rtt: SimDuration,
    fwd_path: Vec<LinkId>,
    rev_path: Vec<LinkId>,
    arr_rng: SimRng,
    size_rng: SimRng,
    arrival: Arrival,
    cdf: SizeCdf,
    remaining: u64,
    clock_secs: f64,
    dead_time_budget: Option<SimDuration>,
    traced: bool,
    samples: Rc<RefCell<Vec<ChurnSample>>>,
    losses: Rc<Cell<u64>>,
}

impl ChurnDriver for Driver {
    fn next_arrival(&mut self, _now: SimTime) -> Option<(SimTime, ChurnFlow)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock_secs += self.arrival.gap_secs(&mut self.arr_rng);
        let bytes = self.cdf.sample(&mut self.size_rng);
        let flow = ChurnFlow {
            sender: sim::sender(
                &self.protocol,
                FlowSize::Bytes(bytes),
                self.rtt,
                self.dead_time_budget,
                self.traced,
            ),
            receiver: sim::receiver(self.traced),
            fwd_path: self.fwd_path.clone(),
            rev_path: self.rev_path.clone(),
            tag: bytes,
        };
        Some((SimTime::from_secs_f64(self.clock_secs), flow))
    }

    fn on_flow_complete(&mut self, tag: u64, stats: &FlowStats, _now: SimTime) {
        self.losses.set(self.losses.get() + stats.detected_losses);
        self.samples.borrow_mut().push(ChurnSample {
            bytes: tag,
            fct: stats.fct().map(|d| d.as_secs_f64()),
            goodput: stats.goodput_bytes,
        });
    }
}

/// A churn network ready to run, built as `run_churn` builds it.
struct Built {
    sim: Simulation,
    horizon: SimTime,
    samples: Rc<RefCell<Vec<ChurnSample>>>,
    losses: Rc<Cell<u64>>,
    bottleneck: LinkId,
}

/// Set-up: the registry, the arrival-horizon probe, the topology and the
/// network with its driver.
fn build(seed: u64, traced: bool) -> Built {
    install_registry();
    let cfg = config(seed);
    let mut probe = SimRng::new(cfg.seed).derive(ARRIVAL_STREAM);
    let last_arrival: f64 = (0..cfg.flows)
        .map(|_| cfg.arrival.gap_secs(&mut probe))
        .sum();
    let horizon = SimTime::from_secs_f64(last_arrival) + cfg.drain;

    let mut net = NetworkBuilder::new(SimConfig {
        sample_interval: cfg.sample_interval,
        seed: cfg.seed,
    });
    let setup = cfg.link;
    let mut topo = Topology::new();
    let src = topo.add_host();
    let mid = topo.add_switch();
    let edge = topo.add_link(src, mid, sim::bottleneck(&setup, traced));
    let half = setup.rtt / 2;
    let recv = topo.add_host();
    topo.add_link(mid, recv, LinkConfig::delay_only(half));
    topo.add_link(
        recv,
        src,
        LinkConfig::delay_only(setup.rtt - half).with_loss(setup.ack_loss),
    );
    topo.install(&mut net);
    let path = topo.flow_path(src, recv, 0);

    let samples = Rc::new(RefCell::new(Vec::new()));
    let losses = Rc::new(Cell::new(0));
    let master = SimRng::new(cfg.seed);
    let driver: Box<dyn ChurnDriver> = Box::new(Driver {
        protocol: cfg.protocol,
        rtt: setup.rtt,
        fwd_path: path.fwd,
        rev_path: path.rev,
        arr_rng: master.derive(ARRIVAL_STREAM),
        size_rng: master.derive(SIZE_STREAM),
        arrival: cfg.arrival,
        cdf: cfg.cdf,
        remaining: cfg.flows,
        clock_secs: 0.0,
        dead_time_budget: cfg.dead_time_budget,
        traced,
        samples: Rc::clone(&samples),
        losses: Rc::clone(&losses),
    });
    net.set_churn_driver(if traced {
        TimedDriver::boxed(driver)
    } else {
        driver
    });
    net.set_record_series(false);
    Built {
        sim: net.build(),
        horizon,
        samples,
        losses,
        bottleneck: topo.link_of(edge),
    }
}

/// `ChurnReport::fingerprint` of a rebuilt run. The fingerprint reads only
/// the harvested samples, the engine's churn counters and the event count.
fn fingerprint(samples: Vec<ChurnSample>, report: &SimReport) -> u64 {
    ChurnReport {
        samples,
        churn: report.churn,
        overall: FctSummary::default(),
        buckets: Vec::new(),
        goodput_mbps: 0.0,
        arrival_rate_hz: 0.0,
        completion_rate_hz: 0.0,
        horizon_secs: 0.0,
        events_processed: report.events_processed,
    }
    .fingerprint()
}

/// A rebuilt run's outputs: report, fingerprint, detected losses and
/// `run_until` host seconds.
struct Rebuilt {
    report: SimReport,
    fingerprint: u64,
    losses: u64,
    run_s: f64,
    bottleneck: LinkId,
}

fn run_rebuilt(seed: u64, traced: bool) -> Rebuilt {
    let b = build(seed, traced);
    let t0 = Instant::now();
    let report = if traced {
        trace::timed(Layer::Sim, || b.sim.run_until(b.horizon))
    } else {
        b.sim.run_until(b.horizon)
    };
    let run_s = t0.elapsed().as_secs_f64();
    let samples = Rc::try_unwrap(b.samples)
        .expect("driver dropped with the simulation")
        .into_inner();
    Rebuilt {
        fingerprint: fingerprint(samples, &report),
        losses: b.losses.get(),
        report,
        run_s,
        bottleneck: b.bottleneck,
    }
}

/// Flows that stalled or were still unfinished at the horizon.
fn failed_flows(c: &ChurnStats) -> u64 {
    c.stalls + c.live_at_end
}

/// Conservation: every flow admitted is accounted for exactly once.
fn conserved(c: &ChurnStats) -> bool {
    c.arrivals == FLOWS && c.arrivals == c.completions + c.stalls + c.live_at_end
}

/// End-to-end run: `run_churn` repeated for `seconds`.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut walls, mut cpu_per_gb, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<ChurnReport> = None;
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed() < seconds {
        setups.extend(host::time_setup(5, || build(seed, false), drop));
        let cpu0 = host::thread_cpu_ns();
        let t0 = Instant::now();
        let r = run_churn(config(seed));
        walls.push(t0.elapsed().as_secs_f64());
        let cpu_s = (host::thread_cpu_ns() - cpu0) as f64 / 1e9;
        let bytes: u64 = r.samples.iter().map(|s| s.goodput).sum();
        cpu_per_gb.push(cpu_s / (bytes as f64 / 1e9));
        out.attempted += r.churn.arrivals;
        out.failed += failed_flows(&r.churn);
        out.correct &= conserved(&r.churn);
        match &first {
            None => first = Some(r),
            Some(f) => out.correct &= f.fingerprint() == r.fingerprint(),
        }
    }
    let r = first.expect("at least one run");
    // The set-up measured above must be the set-up of the run measured.
    out.correct &= run_rebuilt(seed, false).fingerprint == r.fingerprint();
    // A flow cannot complete in less than one round trip.
    let p50 = r.overall.p50_ms();
    let p999 = r.overall.p999_ms();
    out.correct &= p50 >= 10.0 && p999 >= p50;
    let beyond = r.overall.count() - (r.overall.count() as f64 * 0.999).ceil() as usize;
    println!(
        "churn: {} flows, {} completed, fct p50 {p50:.3} ms, p99.9 {p999:.3} ms ({beyond} beyond), \
         {} events, peak {} live flows, generator lateness 0 (open loop)",
        r.churn.arrivals,
        r.overall.count(),
        r.events_processed,
        r.churn.peak_live
    );
    let m = &mut out.metrics;
    m.set("wall_s", median(&walls));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set("goodput_mbps", r.goodput_mbps);
    m.set("cpu_s_per_gb", median(&cpu_per_gb));
    out
}

/// Traced run: untraced and traced rebuilds in pairs for `seconds`, each
/// checked against `run_churn`'s fingerprint.
pub fn run_traced(seed: u64, seconds: Duration) -> Outcome {
    let want = run_churn(config(seed)).fingerprint();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < 3 || started.elapsed() < seconds {
        let plain = run_rebuilt(seed, false);
        let cal = trace::calibrate();
        let traced = run_rebuilt(seed, true);
        let totals = trace::take();
        let c = traced.report.churn;
        out.attempted += c.arrivals;
        if plain.fingerprint == want && traced.fingerprint == want && conserved(&c) {
            out.failed += failed_flows(&c);
        } else {
            out.failed += c.arrivals;
            out.correct = false;
        }
        let mut m = Metrics::default();
        sim::layer_metrics(
            &mut m,
            &TracedRun {
                totals,
                untraced_s: plain.run_s,
                traced_s: traced.run_s,
                events: traced.report.events_processed,
                losses: traced.losses,
                queue: traced.report.links[traced.bottleneck.index()].queue,
            },
            &cal,
        );
        m.set("simnet.sim.peak_live", c.peak_live as f64);
        m.set("simnet.sim.recycled", c.recycled as f64);
        m.set("simnet.sim.stale_packets", c.stale_packets as f64);
        m.set("simnet.sim.stale_timers", c.stale_timers as f64);
        m.set(
            "scenarios.workload.us_per_arrival",
            m.get("scenarios.workload.self_s").unwrap_or(0.0) * 1e6 / c.arrivals.max(1) as f64,
        );
        m.set("scenarios.workload.arrivals", c.arrivals as f64);
        runs.push(m);
    }
    out.metrics = Metrics::median_of(&runs);
    crate::finish_traced(&mut out);
    out
}
