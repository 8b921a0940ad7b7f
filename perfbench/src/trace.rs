//! Per-layer timing from outside the program: decorators around each
//! layer's public trait objects, and a per-thread span stack that turns
//! their nested durations into self times.
//!
//! Every decorated call pushes a frame, runs the inner call and pops the
//! frame. A layer's self time is the call's duration minus the time its
//! child calls covered; the root span (`Simulation::run_until`) therefore
//! ends up holding whatever the decorators did not claim, which is the
//! simulator core itself.
//!
//! Timing costs something: two clock reads and the frame bookkeeping per
//! call. [`calibrate`] measures that cost on an empty call, and
//! [`Totals::corrected_self_ns`] subtracts it per call, so that the layer
//! rows add up to the untraced run's time rather than the traced one's.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use pcc_simnet::endpoint::{Endpoint, EndpointCtx};
use pcc_simnet::ids::{FlowId, Side};
use pcc_simnet::packet::Packet;
use pcc_simnet::queue::{Queue, QueueStats};
use pcc_simnet::rng::SimRng;
use pcc_simnet::sim::{ChurnDriver, ChurnFlow};
use pcc_simnet::stats::FlowStats;
use pcc_simnet::time::SimTime;
use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent, ReportMode, SentEvent};
use pcc_transport::MeasurementReport;

/// The layers a span can be charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Simulation::run_until`: the event loop, links, and arena.
    Sim,
    /// The sender `Endpoint` (the `CcSender` engine).
    Sender,
    /// The receiver `Endpoint`.
    Receiver,
    /// The `CongestionControl` algorithm.
    Cc,
    /// The bottleneck `Queue`.
    Queue,
    /// The `ChurnDriver` workload generator (including per-flow setup).
    Workload,
    /// Empty calls made while calibrating the timer.
    Calib,
}

const LAYERS: usize = 7;

/// The `CongestionControl` callbacks whose calls are counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcCall {
    /// `on_start`
    Start,
    /// `on_sent`
    Sent,
    /// `on_ack`
    Ack,
    /// `on_loss`
    Loss,
    /// `on_timer`
    Timer,
    /// `on_report`
    Report,
    /// `on_resume`
    Resume,
}

const CC_CALLS: usize = 7;

/// Accumulated span data for one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Raw self time: span durations minus the child spans they contain.
    pub self_ns: u64,
    /// Spans recorded.
    pub calls: u64,
    /// Spans recorded directly inside this layer's spans.
    pub child_calls: u64,
}

/// Everything one thread recorded since its last [`take`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    layers: [LayerTotals; LAYERS],
    cc_calls: [u64; CC_CALLS],
}

impl Totals {
    /// Raw totals of `layer`.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.layers[layer as usize]
    }

    /// Calls made to one `CongestionControl` callback.
    pub fn cc_calls(&self, call: CcCall) -> u64 {
        self.cc_calls[call as usize]
    }

    /// `layer`'s self time with the timer's own cost removed: the part of
    /// each of its spans that the clock reads occupy, and the part of
    /// each child span that fell outside the child's own window.
    pub fn corrected_self_ns(&self, layer: Layer, cal: &Calibration) -> f64 {
        let l = self.layer(layer);
        let inner = l.calls as f64 * cal.inner_ns;
        let outer = l.child_calls as f64 * (cal.timer_ns - cal.inner_ns);
        (l.self_ns as f64 - inner - outer).max(0.0)
    }
}

#[derive(Default)]
struct Frame {
    child_ns: u64,
    child_calls: u64,
}

struct State {
    stack: Vec<Frame>,
    totals: Totals,
}

const EMPTY: LayerTotals = LayerTotals {
    self_ns: 0,
    calls: 0,
    child_calls: 0,
};

thread_local! {
    static STATE: RefCell<State> = const {
        RefCell::new(State {
            stack: Vec::new(),
            totals: Totals {
                layers: [EMPTY; LAYERS],
                cc_calls: [0; CC_CALLS],
            },
        })
    };
}

/// Run `f` as one span of `layer`.
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span(layer, None, f)
}

/// Run `f` as one span of `layer`, counting it as one `call` if given.
fn span<R>(layer: Layer, call: Option<CcCall>, f: impl FnOnce() -> R) -> R {
    STATE.with(|s| s.borrow_mut().stack.push(Frame::default()));
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_nanos() as u64;
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.stack.pop().expect("span stack is balanced");
        if let Some(call) = call {
            s.totals.cc_calls[call as usize] += 1;
        }
        let l = &mut s.totals.layers[layer as usize];
        l.self_ns += dt.saturating_sub(frame.child_ns);
        l.calls += 1;
        l.child_calls += frame.child_calls;
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += dt;
            parent.child_calls += 1;
        }
    });
    out
}

/// Return and reset this thread's totals.
pub fn take() -> Totals {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.stack.is_empty(), "take() inside an open span");
        std::mem::take(&mut s.totals)
    })
}

/// The measured cost of timing one call.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// What one span adds to the time of the span around it.
    pub timer_ns: f64,
    /// The part of that cost that falls inside the span's own window.
    pub inner_ns: f64,
}

/// An endpoint that does nothing, for [`calibrate`].
struct Noop;

impl Endpoint for Noop {
    fn start(&mut self, _: &mut EndpointCtx) {}
    fn on_packet(&mut self, _: &Packet, _: &mut EndpointCtx) {}
    fn on_timer(&mut self, token: u64, _: &mut EndpointCtx) {
        black_box(token);
    }
}

/// Measure what a decorator adds to an empty call, nested one level deep
/// as the decorated calls are: the difference between a loop of calls
/// into a decorated do-nothing endpoint and the same loop into the bare
/// one, both through `Box<dyn Endpoint>`, as the median of a few batches.
pub fn calibrate() -> Calibration {
    const N: u64 = 200_000;
    let mut rng = SimRng::new(1);
    let mut actions = Vec::new();
    let mut ctx = EndpointCtx::new(
        SimTime::ZERO,
        FlowId(0),
        Side::Sender,
        &mut rng,
        &mut actions,
    );
    let mut bare: Box<dyn Endpoint> = Box::new(Noop);
    let mut decorated = TimedEndpoint::boxed(Box::new(Noop), Layer::Calib);
    let _ = take();
    let mut timer = Vec::new();
    let mut inner = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        for i in 0..N {
            black_box(&mut bare).on_timer(i, &mut ctx);
        }
        let plain = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        timed(Layer::Sim, || {
            for i in 0..N {
                black_box(&mut decorated).on_timer(i, &mut ctx);
            }
        });
        let with = t0.elapsed().as_nanos() as f64;
        let t = take();
        timer.push((with - plain).max(0.0) / N as f64);
        inner.push(t.layer(Layer::Calib).self_ns as f64 / N as f64);
    }
    let timer_ns = crate::host::median(&timer);
    Calibration {
        timer_ns,
        inner_ns: crate::host::median(&inner).min(timer_ns),
    }
}

/// Times every callback of a [`CongestionControl`] and counts each event
/// kind. The three accessors (`name`, `report_mode`, `probe_tag`) are
/// forwarded untimed, so their cost stays with the caller.
pub struct TimedCc {
    inner: Box<dyn CongestionControl>,
}

impl TimedCc {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn CongestionControl>) -> Self {
        TimedCc { inner }
    }
}

impl CongestionControl for TimedCc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        span(Layer::Cc, Some(CcCall::Start), || self.inner.on_start(ctx))
    }

    fn on_sent(&mut self, ev: &SentEvent, ctx: &mut Ctx) {
        span(Layer::Cc, Some(CcCall::Sent), || {
            self.inner.on_sent(ev, ctx)
        })
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut Ctx) {
        span(Layer::Cc, Some(CcCall::Ack), || self.inner.on_ack(ack, ctx))
    }

    fn on_loss(&mut self, loss: &LossEvent, ctx: &mut Ctx) {
        span(Layer::Cc, Some(CcCall::Loss), || {
            self.inner.on_loss(loss, ctx)
        })
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        span(Layer::Cc, Some(CcCall::Timer), || {
            self.inner.on_timer(token, ctx)
        })
    }

    fn report_mode(&self) -> ReportMode {
        self.inner.report_mode()
    }

    fn on_report(&mut self, rep: &MeasurementReport, ctx: &mut Ctx) {
        span(Layer::Cc, Some(CcCall::Report), || {
            self.inner.on_report(rep, ctx)
        })
    }

    fn on_resume(&mut self, ctx: &mut Ctx) {
        span(Layer::Cc, Some(CcCall::Resume), || {
            self.inner.on_resume(ctx)
        })
    }

    fn probe_tag(&self) -> Option<u32> {
        self.inner.probe_tag()
    }
}

/// Times every callback of a sender or receiver [`Endpoint`].
pub struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    layer: Layer,
}

impl TimedEndpoint {
    /// Wrap `inner`, charging its spans to `layer`.
    pub fn boxed(inner: Box<dyn Endpoint>, layer: Layer) -> Box<dyn Endpoint> {
        Box::new(TimedEndpoint { inner, layer })
    }
}

impl Endpoint for TimedEndpoint {
    fn start(&mut self, ctx: &mut EndpointCtx) {
        timed(self.layer, || self.inner.start(ctx))
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut EndpointCtx) {
        timed(self.layer, || self.inner.on_packet(pkt, ctx))
    }

    fn on_timer(&mut self, token: u64, ctx: &mut EndpointCtx) {
        timed(self.layer, || self.inner.on_timer(token, ctx))
    }
}

/// Times `enqueue` and `dequeue` of a [`Queue`]; the read-only accessors
/// are forwarded untimed.
pub struct TimedQueue {
    inner: Box<dyn Queue>,
}

impl TimedQueue {
    /// Wrap `inner`.
    pub fn boxed(inner: Box<dyn Queue>) -> Box<dyn Queue> {
        Box::new(TimedQueue { inner })
    }
}

impl Queue for TimedQueue {
    fn enqueue(&mut self, pkt: Packet, now: SimTime) -> bool {
        timed(Layer::Queue, || self.inner.enqueue(pkt, now))
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        timed(Layer::Queue, || self.inner.dequeue(now))
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }

    fn stats(&self) -> QueueStats {
        self.inner.stats()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Times both callbacks of a [`ChurnDriver`].
pub struct TimedDriver {
    inner: Box<dyn ChurnDriver>,
}

impl TimedDriver {
    /// Wrap `inner`.
    pub fn boxed(inner: Box<dyn ChurnDriver>) -> Box<dyn ChurnDriver> {
        Box::new(TimedDriver { inner })
    }
}

impl ChurnDriver for TimedDriver {
    fn next_arrival(&mut self, now: SimTime) -> Option<(SimTime, ChurnFlow)> {
        timed(Layer::Workload, || self.inner.next_arrival(now))
    }

    fn on_flow_complete(&mut self, tag: u64, stats: &FlowStats, now: SimTime) {
        timed(Layer::Workload, || {
            self.inner.on_flow_complete(tag, stats, now)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_simnet::time::SimDuration;
    use pcc_transport::cc::{Effects, LossKind, ReportInterval};
    use std::sync::{Arc, Mutex};

    /// Overrides every trait method with a distinctive effect or return
    /// value and logs each call, so a decorator that lets a default method
    /// through shows up as a missing log entry or a different value.
    struct Recorder(Arc<Mutex<Vec<&'static str>>>);

    impl Recorder {
        fn log(&self, m: &'static str) {
            self.0.lock().expect("log mutex").push(m);
        }
    }

    impl CongestionControl for Recorder {
        fn name(&self) -> &'static str {
            self.log("name");
            "recorder"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.log("on_start");
            ctx.set_rate(1e6);
        }
        fn on_sent(&mut self, _: &SentEvent, ctx: &mut Ctx) {
            self.log("on_sent");
            ctx.set_cwnd(11.0);
        }
        fn on_ack(&mut self, _: &AckEvent, ctx: &mut Ctx) {
            self.log("on_ack");
            ctx.set_timer(SimTime::from_millis(1), 1);
        }
        fn on_loss(&mut self, _: &LossEvent, ctx: &mut Ctx) {
            self.log("on_loss");
            ctx.set_timer(SimTime::from_millis(2), 2);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
            self.log("on_timer");
            ctx.set_timer(SimTime::from_millis(3), token);
        }
        fn report_mode(&self) -> ReportMode {
            self.log("report_mode");
            ReportMode::Batched(ReportInterval::Rtts(3.0))
        }
        fn on_report(&mut self, _: &MeasurementReport, ctx: &mut Ctx) {
            self.log("on_report");
            ctx.set_report_interval(SimDuration::from_millis(7));
        }
        fn on_resume(&mut self, ctx: &mut Ctx) {
            self.log("on_resume");
            ctx.set_rate(2e6);
        }
        fn probe_tag(&self) -> Option<u32> {
            self.log("probe_tag");
            Some(42)
        }
    }

    #[test]
    fn timed_cc_forwards_all_ten_methods() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cc = TimedCc::new(Box::new(Recorder(Arc::clone(&log))));
        let mut rng = SimRng::new(1);
        let mut fx = Effects::default();
        let now = SimTime::from_millis(1);
        let d = SimDuration::from_millis(1);
        let ack = AckEvent {
            now,
            seq: 0,
            rtt: d,
            sampled: true,
            srtt: d,
            min_rtt: d,
            max_rtt: d,
            recv_at: now,
            probe_train: None,
            of_retx: false,
            cum_ack: 1,
            newly_acked: 1,
            in_flight: 0,
            mss: 1500,
            in_recovery: false,
        };
        let sent = SentEvent {
            now,
            seq: 0,
            bytes: 1500,
            retx: false,
            in_flight: 1,
        };
        let loss = LossEvent {
            now,
            seqs: &[0],
            kind: LossKind::Detected,
            new_episode: true,
            in_flight: 0,
            mss: 1500,
        };
        let _ = take();

        assert_eq!(cc.name(), "recorder");
        assert_eq!(
            cc.report_mode(),
            ReportMode::Batched(ReportInterval::Rtts(3.0))
        );
        assert_eq!(cc.probe_tag(), Some(42));
        cc.on_start(&mut Ctx::new(now, &mut rng, &mut fx));
        assert_eq!(fx.drain().rate, Some(1e6));
        cc.on_sent(&sent, &mut Ctx::new(now, &mut rng, &mut fx));
        assert_eq!(fx.drain().cwnd, Some(11.0));
        cc.on_ack(&ack, &mut Ctx::new(now, &mut rng, &mut fx));
        assert_eq!(fx.drain().timers, vec![(SimTime::from_millis(1), 1)]);
        cc.on_loss(&loss, &mut Ctx::new(now, &mut rng, &mut fx));
        assert_eq!(fx.drain().timers, vec![(SimTime::from_millis(2), 2)]);
        cc.on_timer(9, &mut Ctx::new(now, &mut rng, &mut fx));
        assert_eq!(fx.drain().timers, vec![(SimTime::from_millis(3), 9)]);
        cc.on_report(
            &MeasurementReport::default(),
            &mut Ctx::new(now, &mut rng, &mut fx),
        );
        assert_eq!(fx.drain().report_in, Some(SimDuration::from_millis(7)));
        cc.on_resume(&mut Ctx::new(now, &mut rng, &mut fx));
        assert_eq!(fx.drain().rate, Some(2e6));

        let mut seen = log.lock().expect("log mutex").clone();
        seen.sort_unstable();
        let mut want = vec![
            "name",
            "on_start",
            "on_sent",
            "on_ack",
            "on_loss",
            "on_timer",
            "report_mode",
            "on_report",
            "on_resume",
            "probe_tag",
        ];
        want.sort_unstable();
        assert_eq!(seen, want, "every method reaches the inner algorithm once");

        let t = take();
        assert_eq!(t.layer(Layer::Cc).calls, 7, "the seven callbacks are timed");
        for call in [
            CcCall::Start,
            CcCall::Sent,
            CcCall::Ack,
            CcCall::Loss,
            CcCall::Timer,
            CcCall::Report,
            CcCall::Resume,
        ] {
            assert_eq!(t.cc_calls(call), 1, "{call:?} counted once");
        }
    }

    #[test]
    fn self_times_partition_the_root_span() {
        let _ = take();
        let t0 = Instant::now();
        timed(Layer::Sim, || {
            for _ in 0..100 {
                timed(Layer::Sender, || {
                    timed(Layer::Cc, || black_box(0));
                });
                timed(Layer::Queue, || black_box(0));
            }
        });
        let wall = t0.elapsed().as_nanos() as u64;
        let t = take();
        let layers = [Layer::Sim, Layer::Sender, Layer::Cc, Layer::Queue];
        assert_eq!(t.layer(Layer::Sim).calls, 1);
        assert_eq!(t.layer(Layer::Sim).child_calls, 200);
        assert_eq!(t.layer(Layer::Sender).child_calls, 100);
        assert_eq!(layers.map(|l| t.layer(l).calls).iter().sum::<u64>(), 301);
        let self_ns: u64 = layers.map(|l| t.layer(l).self_ns).iter().sum();
        assert!(self_ns <= wall, "self times never double count");
    }
}
