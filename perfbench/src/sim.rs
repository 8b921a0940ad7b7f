//! Pieces shared by the two simulated workloads: building a dumbbell's
//! parts through the public APIs, with or without timing decorators, and
//! turning one traced run into per-layer metrics.

use pcc_scenarios::{batched_reports_forced, install_registry, LinkSetup, Protocol};
use pcc_simnet::prelude::*;
use pcc_simnet::queue::QueueStats;
use pcc_transport::cc::CongestionControl;
use pcc_transport::{
    CcParams, CcSender, CcSenderConfig, FlowSize, ReportMode, SackReceiver, TransportConfig,
};

use crate::report::Metrics;
use crate::trace::{Calibration, CcCall, Layer, TimedCc, TimedEndpoint, TimedQueue, Totals};

/// Wire packet size every simulated flow uses (as the scenario builders do).
pub const MSS: u32 = 1500;

/// The bottleneck edge of a dumbbell: `setup`'s rate, loss, queue and
/// shaper, no propagation delay (the RTT lives on the receiver's shims).
/// Both workloads run a drop-tail bottleneck, the only discipline built
/// here.
pub fn bottleneck(setup: &LinkSetup, traced: bool) -> LinkConfig {
    assert_eq!(setup.queue, pcc_scenarios::QueueKind::DropTail);
    let mut link = LinkConfig::bottleneck(setup.rate_bps, SimDuration::ZERO, setup.buffer_bytes)
        .with_loss(setup.loss)
        .with_shaper(setup.shaper());
    if traced {
        link.queue = TimedQueue::boxed(link.queue);
    }
    link
}

/// A sender endpoint for `protocol`, configured exactly as
/// `Protocol::build_sender_budgeted` configures it. Traced, the algorithm
/// and the endpoint each sit inside a timing decorator.
pub fn sender(
    protocol: &Protocol,
    size: FlowSize,
    rtt: SimDuration,
    dead_time_budget: Option<SimDuration>,
    traced: bool,
) -> Box<dyn Endpoint> {
    if !traced {
        return protocol
            .build_sender_budgeted(size, MSS, rtt, dead_time_budget)
            .expect("benchmark protocols are registered");
    }
    let params = CcParams::default().with_mss(MSS).with_rtt_hint(rtt);
    let cc: Box<dyn CongestionControl> = Box::new(TimedCc::new(
        protocol
            .build_cc(&params)
            .expect("benchmark protocols are registered"),
    ));
    let cfg = CcSenderConfig {
        transport: TransportConfig { mss: MSS, size },
        report: batched_reports_forced().then(ReportMode::batched_rtt),
        dead_time_budget,
        ..Default::default()
    };
    TimedEndpoint::boxed(Box::new(CcSender::new(cfg, cc)), Layer::Sender)
}

/// A dumbbell as `run_dumbbell_scheduled` builds it: the bottleneck edge
/// first, then per flow one receiver host with its two RTT shims, all
/// flows on `setup.rtt`. Returns the network and its bottleneck link.
pub fn dumbbell(
    setup: &LinkSetup,
    flows: &[(Protocol, SimTime)],
    seed: u64,
    sample_interval: SimDuration,
    traced: bool,
) -> (Simulation, LinkId) {
    install_registry();
    let mut net = NetworkBuilder::new(SimConfig {
        sample_interval,
        seed,
    });
    let mut topo = Topology::new();
    let src = topo.add_host();
    let mid = topo.add_switch();
    let edge = topo.add_link(src, mid, bottleneck(setup, traced));
    let rtt = setup.rtt;
    let receivers: Vec<NodeId> = flows
        .iter()
        .map(|_| {
            let half = rtt / 2;
            let recv = topo.add_host();
            topo.add_link(mid, recv, LinkConfig::delay_only(half));
            topo.add_link(
                recv,
                src,
                LinkConfig::delay_only(rtt - half).with_loss(setup.ack_loss),
            );
            recv
        })
        .collect();
    topo.install(&mut net);
    for ((protocol, start_at), recv) in flows.iter().zip(receivers) {
        let path = topo.flow_path(src, recv, 0);
        net.add_flow(FlowSpec {
            sender: sender(protocol, FlowSize::Infinite, rtt, None, traced),
            receiver: receiver(traced),
            fwd_path: path.fwd,
            rev_path: path.rev,
            start_at: *start_at,
        });
    }
    (net.build(), topo.link_of(edge))
}

/// A SACK receiver endpoint.
pub fn receiver(traced: bool) -> Box<dyn Endpoint> {
    let rx: Box<dyn Endpoint> = Box::new(SackReceiver::new());
    if traced {
        TimedEndpoint::boxed(rx, Layer::Receiver)
    } else {
        rx
    }
}

/// The deterministic outputs a traced run must reproduce: the event count
/// and, per flow, delivered bytes, unique bytes, packets sent and losses.
pub fn outputs(report: &SimReport) -> (u64, Vec<[u64; 4]>) {
    let flows = report
        .flows
        .iter()
        .map(|f| {
            [
                f.delivered_bytes,
                f.goodput_bytes,
                f.sent_packets,
                f.detected_losses,
            ]
        })
        .collect();
    (report.events_processed, flows)
}

/// Add-up tolerance: the calibrated layer self times must sum to the
/// untraced twin's run time within this share of it.
pub const ADDUP_TOLERANCE: f64 = 0.2;

/// One traced simulation, reduced to what the per-layer metrics need.
pub struct TracedRun {
    /// Span totals of the traced run.
    pub totals: Totals,
    /// Host seconds of the untraced twin's `run_until`.
    pub untraced_s: f64,
    /// Host seconds of the traced `run_until`.
    pub traced_s: f64,
    /// Events the run processed.
    pub events: u64,
    /// Losses the senders detected.
    pub losses: u64,
    /// The bottleneck queue's counters.
    pub queue: QueueStats,
}

/// Per-layer metrics of one traced run.
pub fn layer_metrics(m: &mut Metrics, run: &TracedRun, cal: &Calibration) {
    let t = &run.totals;
    let corrected = |l: Layer| t.corrected_self_ns(l, cal);
    let per_call = |l: Layer| corrected(l) / t.layer(l).calls.max(1) as f64;
    let layers = [
        Layer::Sim,
        Layer::Sender,
        Layer::Cc,
        Layer::Receiver,
        Layer::Queue,
        Layer::Workload,
    ];
    let sum_s: f64 = layers.iter().map(|&l| corrected(l)).sum::<f64>() / 1e9;
    let addup = sum_s / run.untraced_s - 1.0;

    m.set("simnet.sim.self_s", corrected(Layer::Sim) / 1e9);
    m.set(
        "simnet.sim.ns_per_event",
        corrected(Layer::Sim) / run.events.max(1) as f64,
    );
    m.set("simnet.sim.events", run.events as f64);
    m.set("transport.sender.self_s", corrected(Layer::Sender) / 1e9);
    m.set(
        "transport.sender.calls",
        t.layer(Layer::Sender).calls as f64,
    );
    m.set("transport.sender.ns_per_call", per_call(Layer::Sender));
    m.set("transport.sender.losses", run.losses as f64);
    m.set("cc.self_s", corrected(Layer::Cc) / 1e9);
    m.set("cc.ns_per_call", per_call(Layer::Cc));
    cc_counts(m, t);
    m.set(
        "transport.receiver.self_s",
        corrected(Layer::Receiver) / 1e9,
    );
    m.set(
        "transport.receiver.calls",
        t.layer(Layer::Receiver).calls as f64,
    );
    m.set("simnet.queue.self_s", corrected(Layer::Queue) / 1e9);
    m.set("simnet.queue.ops", t.layer(Layer::Queue).calls as f64);
    m.set("simnet.queue.drops", run.queue.dropped() as f64);
    m.set(
        "simnet.queue.max_backlog_bytes",
        run.queue.max_backlog_bytes as f64,
    );
    m.set(
        "scenarios.workload.self_s",
        corrected(Layer::Workload) / 1e9,
    );
    m.set("trace.overhead_frac", run.traced_s / run.untraced_s - 1.0);
    m.set("trace.addup_error", addup);
    m.set("trace.timer_ns", cal.timer_ns);
}

/// The `cc.on_*` call counts.
pub fn cc_counts(m: &mut Metrics, t: &Totals) {
    m.set("cc.on_ack", t.cc_calls(CcCall::Ack) as f64);
    m.set("cc.on_sent", t.cc_calls(CcCall::Sent) as f64);
    m.set("cc.on_loss", t.cc_calls(CcCall::Loss) as f64);
    m.set("cc.on_timer", t.cc_calls(CcCall::Timer) as f64);
    m.set("cc.on_report", t.cc_calls(CcCall::Report) as f64);
}
