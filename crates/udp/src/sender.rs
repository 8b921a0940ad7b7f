//! The UDP sender: the paper's user-space prototype shape — a sender whose
//! transmission schedule is dictated by any [`CongestionControl`]
//! algorithm, with SACK-scoreboard reliability. There is no second engine
//! here: [`send_with`] drives the simulator's own [`CcSender`] on the wall
//! clock. Elapsed real time is mapped onto [`SimTime`], the engine's timer
//! requests run on a local min-heap, its `Send` actions become datagrams,
//! and decoded ACK frames are handed back to it as ACK packets. Whatever
//! the engine does in the simulator — pacing, window clocking, RTO
//! backoff, the dead-time budget, outage resume, batched reports — it does
//! here, on the same algorithm object.
//!
//! Everything runs on `std::net` sockets (non-blocking receive plus short
//! waits); no async runtime is required.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::thread;
use std::time::{Duration, Instant};

use pcc_core::{PccConfig, PccController};
use pcc_simnet::endpoint::{Action, Endpoint, EndpointCtx};
use pcc_simnet::ids::{FlowId, Side};
use pcc_simnet::packet::Packet;
use pcc_simnet::rng::SimRng;
use pcc_simnet::time::{SimDuration, SimTime};
use pcc_transport::cc::{CongestionControl, ReportMode};
use pcc_transport::error::TransferError;
use pcc_transport::flow::{FlowSize, TransportConfig};
use pcc_transport::registry::{self, CcParams, SpecError};
use pcc_transport::sender::{CcSender, CcSenderConfig};

use crate::wire::{decode, encode_data, DataHeader, Frame};

/// Sender configuration. Each field maps onto a [`CcSenderConfig`] field
/// of the engine that [`send_with`] drives.
#[derive(Clone, Copy, Debug)]
pub struct UdpSenderConfig {
    /// Payload bytes per datagram.
    pub payload: usize,
    /// Total payload bytes to deliver.
    pub total_bytes: u64,
    /// RNG seed for the algorithm's randomized decisions.
    pub seed: u64,
    /// Feedback-path override, passed through as
    /// [`CcSenderConfig::report`]. `None` honours the algorithm's own
    /// [`CongestionControl::report_mode`] preference; `Some` forces per-ACK
    /// or batched delivery regardless.
    pub report: Option<ReportMode>,
    /// Dead-time budget, passed through as
    /// [`CcSenderConfig::dead_time_budget`]: if no forward progress (no new
    /// bytes cumulatively acknowledged) happens for this long while
    /// timeouts keep firing, the transfer aborts with an
    /// [`ErrorKind::TimedOut`] `io::Error` wrapping
    /// [`TransferError::Stalled`] (downcast via `err.get_ref()`), instead
    /// of retrying a dead peer forever on the capped-backoff timer. `None`
    /// disables the budget. Unlike the simulator (where the default is off
    /// and the experiment horizon bounds every run), a real socket has no
    /// horizon — the default is 30 s on.
    pub dead_time_budget: Option<Duration>,
}

impl Default for UdpSenderConfig {
    fn default() -> Self {
        UdpSenderConfig {
            payload: 1200,
            total_bytes: 8 * 1024 * 1024,
            seed: 1,
            report: None,
            dead_time_budget: Some(Duration::from_secs(30)),
        }
    }
}

/// Outcome of one send session.
#[derive(Clone, Copy, Debug, Default)]
pub struct SenderReport {
    /// Wall-clock transfer time.
    pub elapsed: Duration,
    /// Payload goodput in Mbit/s.
    pub goodput_mbps: f64,
    /// Datagrams sent (including retransmissions).
    pub sent: u64,
    /// Losses detected.
    pub losses: u64,
    /// Final pacing rate, bits/sec (0 for pure window algorithms).
    pub final_rate_bps: f64,
    /// Final congestion window, packets (0 for pure rate algorithms).
    pub final_cwnd_pkts: f64,
    /// RTO firings ([`CcSender::timeouts`]; 0 for pure rate control).
    /// Each doubles the effective RTO until a fresh RTT sample arrives, so
    /// a blackout fires O(log duration) of these, not one per base RTO.
    pub timeouts: u64,
}

/// Install every workspace algorithm into the
/// [`pcc_transport::registry`] so [`send_named`] can resolve any of them.
/// Idempotent. `pcc_scenarios::install_registry` keeps the same list for
/// the simulator (neither crate depends on the other); a new algorithm
/// crate goes into both, and the `registry_parity_*` tests at the
/// workspace root fail if the two lists register different names.
pub fn install_registry() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        pcc_core::register_algorithms();
        pcc_tcp::register_algorithms();
        pcc_rate::register_algorithms();
        pcc_bbr::register_algorithms();
    });
}

/// Bytes of UDP/IP framing added to each payload datagram; what the
/// engine accounts as the wire packet size must include it, and so must
/// the MSS handed to the algorithm.
pub const WIRE_OVERHEAD_BYTES: usize = 40;

/// The wire packet size for a sender configuration.
pub fn wire_mss(cfg: &UdpSenderConfig) -> u32 {
    (cfg.payload + WIRE_OVERHEAD_BYTES) as u32
}

/// The PCC controller [`send_pcc`] runs: paper config plus the *wire*
/// MSS. Threading the MSS through is load-bearing — the monitor measures
/// throughput, the 2·MSS/RTT starting rate, and the rate floor in units
/// of this packet size, and a controller left at the 1500 B default
/// over-reports all three on a `payload + 40` wire (the skew the paper's
/// utility function is sensitive to).
pub fn pcc_controller(cfg: &UdpSenderConfig, pcc: PccConfig) -> PccController {
    PccController::new(pcc).with_mss(wire_mss(cfg))
}

/// Send `cfg.total_bytes` to `peer` over `socket`, paced by a PCC
/// controller with the given config.
pub fn send_pcc(
    socket: &UdpSocket,
    peer: SocketAddr,
    cfg: UdpSenderConfig,
    pcc: PccConfig,
) -> std::io::Result<SenderReport> {
    let ctrl = pcc_controller(&cfg, pcc);
    send_with(socket, peer, cfg, Box::new(ctrl))
}

/// Send with any registered algorithm, resolved by name or parameterized
/// spec (`"pcc"`, `"cubic-paced"`, `"cubic:beta=0.7,iw=32"`, ...).
/// Unknown names and invalid spec parameters surface the registry's typed
/// [`SpecError`].
pub fn send_named(
    socket: &UdpSocket,
    peer: SocketAddr,
    cfg: UdpSenderConfig,
    name: &str,
    rtt_hint: SimDuration,
) -> std::io::Result<Result<SenderReport, SpecError>> {
    install_registry();
    let params = CcParams::default()
        .with_mss(wire_mss(&cfg))
        .with_rtt_hint(rtt_hint);
    match registry::by_name(name, &params) {
        Ok(cc) => send_with(socket, peer, cfg, cc).map(Ok),
        Err(e) => Ok(Err(e)),
    }
}

/// The RTO floor on the real-socket datapath. A loopback RTT is tens of
/// microseconds; the simulator's 200 ms TCP floor would idle a window
/// algorithm for thousands of RTTs after every timeout.
const UDP_MIN_RTO: SimDuration = SimDuration::from_millis(10);

/// Cap on datagrams in flight, the datapath's receive window. Each one
/// comes back as an ACK that waits in the sender's socket buffer until it
/// is read; Linux's default buffer holds a few hundred, and a lost final
/// ACK is unrecoverable once the receiver has everything and returns. 64
/// also fits the receiver's buffer at a 1200 B payload.
const MAX_IN_FLIGHT: u64 = 64;

/// Waits shorter than this are spun, not slept: a sleep overshoots by the
/// kernel's timer slack (about 50 µs), stretching short pacing gaps.
const SPIN_BELOW: Duration = Duration::from_micros(100);

/// Longest nap between checks for ACKs while nothing is due.
const MAX_NAP: Duration = Duration::from_micros(250);

/// The engine configuration for a UDP transfer. The flow is sized as
/// `ceil(total_bytes / payload)` datagrams of [`wire_mss`] bytes:
/// `FlowSize::Bytes(total_bytes)` at the wire MSS would stop
/// 40/(payload+40) short and leave the receiver waiting forever. One
/// datagram per `send_to`, so no offload bursts.
fn engine_config(cfg: &UdpSenderConfig) -> CcSenderConfig {
    let mss = wire_mss(cfg);
    let datagrams = cfg.total_bytes.div_ceil(cfg.payload as u64);
    CcSenderConfig {
        transport: TransportConfig {
            mss,
            size: FlowSize::Bytes(datagrams * mss as u64),
        },
        max_in_flight: MAX_IN_FLIGHT,
        min_rto: Some(UDP_MIN_RTO),
        tso_burst_pkts: 1,
        report: cfg.report,
        dead_time_budget: cfg
            .dead_time_budget
            .map(|d| SimDuration::from_nanos(d.as_nanos() as u64)),
        ..CcSenderConfig::default()
    }
}

/// Wall-clock driver state around one [`CcSender`].
struct Driver<'a> {
    socket: &'a UdpSocket,
    peer: SocketAddr,
    start: Instant,
    sender: CcSender,
    rng: SimRng,
    actions: Vec<Action>,
    /// Armed engine timers `(at, token)`, earliest first.
    timers: BinaryHeap<Reverse<(SimTime, u64)>>,
    payload: Vec<u8>,
    sent: u64,
    /// Highest cumulative ack seen, in datagrams.
    cum_ack: u64,
    finished: bool,
}

impl Driver<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// Run one engine callback at `now`, then carry out its actions in
    /// order. A stall ends the transfer on the spot: nothing queued after
    /// it reaches the wire.
    fn call<R>(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut CcSender, &mut EndpointCtx) -> R,
    ) -> std::io::Result<R> {
        let mut actions = std::mem::take(&mut self.actions);
        let out = f(
            &mut self.sender,
            &mut EndpointCtx::new(now, FlowId(0), Side::Sender, &mut self.rng, &mut actions),
        );
        let done = actions.drain(..).try_for_each(|a| self.apply(a));
        self.actions = actions;
        done.map(|()| out)
    }

    fn apply(&mut self, action: Action) -> std::io::Result<()> {
        match action {
            Action::Send(pkt) => {
                let Some(d) = pkt.as_data() else {
                    return Ok(());
                };
                let h = DataHeader {
                    seq: d.seq,
                    sent_us: d.sent_at.as_nanos() / 1_000,
                    retx: d.retx,
                    probe_train: d.probe_train,
                };
                match self
                    .socket
                    .send_to(&encode_data(&h, &self.payload), self.peer)
                {
                    // A full socket buffer drops the datagram, as a full
                    // NIC queue would; the scoreboard repairs it.
                    Err(e) if e.kind() != ErrorKind::WouldBlock => return Err(e),
                    _ => self.sent += 1,
                }
            }
            Action::SetTimer { at, token } => self.timers.push(Reverse((at, token))),
            Action::Stall { dark, timeouts } => {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    TransferError::Stalled {
                        dark_ms: dark.as_nanos() / 1_000_000,
                        timeouts,
                        acked_bytes: self.cum_ack.saturating_mul(self.payload.len() as u64),
                    },
                ));
            }
            Action::Finish => self.finished = true,
            // Measurement records are the simulator's statistics.
            Action::RecordRate(_)
            | Action::RecordRtt(_)
            | Action::RecordLoss(_)
            | Action::RecordGoodput(_) => {}
        }
        Ok(())
    }

    /// Fire every timer due at `now`. Timers armed meanwhile fall after
    /// `now`, so a fast pacer cannot starve ACK processing.
    fn fire_due(&mut self, now: SimTime) -> std::io::Result<()> {
        while let Some(&Reverse((at, token))) = self.timers.peek() {
            if at > now || self.finished {
                break;
            }
            self.timers.pop();
            self.call(now, |s, ctx| s.on_timer(token, ctx))?;
        }
        Ok(())
    }

    /// Hand every ACK waiting on the socket to the engine; returns
    /// whether any arrived.
    fn drain_acks(&mut self, buf: &mut [u8]) -> std::io::Result<bool> {
        let mut any = false;
        while !self.finished {
            let n = match self.socket.recv_from(buf) {
                Ok((n, _)) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let Some(Frame::Ack(a)) = decode(&buf[..n]) else {
                continue;
            };
            any = true;
            self.cum_ack = self.cum_ack.max(a.cum_ack);
            let now = self.now();
            let pkt = Packet::ack(FlowId(0), a.info(), now);
            self.call(now, |s, ctx| s.on_packet(&pkt, ctx))?;
        }
        Ok(any)
    }

    /// Wait toward the next engine deadline, napping at most [`MAX_NAP`]
    /// so that arriving ACKs are read promptly.
    fn idle(&self) {
        let until = self.timers.peek().map_or(MAX_NAP, |&Reverse((at, _))| {
            Duration::from_nanos(at.saturating_since(self.now()).as_nanos())
        });
        if until < SPIN_BELOW {
            thread::yield_now();
        } else {
            thread::sleep((until - SPIN_BELOW / 2).min(MAX_NAP));
        }
    }
}

/// Send with an arbitrary congestion-control algorithm: a wall-clock
/// driver around [`CcSender`], which enforces whatever operating point the
/// algorithm requests — pacing rate, congestion window, or both.
///
/// An algorithm that sets neither a rate nor a cwnd in `on_start` is an
/// [`ErrorKind::InvalidInput`] error wrapping
/// [`pcc_transport::NoOperatingPoint`]; an expired
/// [`UdpSenderConfig::dead_time_budget`] is an [`ErrorKind::TimedOut`]
/// error wrapping [`TransferError::Stalled`].
#[expect(
    clippy::disallowed_methods,
    reason = "real sockets run on the wall clock; no simulated result reads it"
)]
pub fn send_with(
    socket: &UdpSocket,
    peer: SocketAddr,
    cfg: UdpSenderConfig,
    cc: Box<dyn CongestionControl>,
) -> std::io::Result<SenderReport> {
    socket.set_nonblocking(true)?;
    let mut d = Driver {
        socket,
        peer,
        start: Instant::now(),
        sender: CcSender::new(engine_config(&cfg), cc),
        rng: SimRng::new(cfg.seed),
        actions: Vec::new(),
        timers: BinaryHeap::new(),
        payload: vec![0xA5u8; cfg.payload],
        sent: 0,
        cum_ack: 0,
        finished: false,
    };
    d.call(SimTime::ZERO, |s, ctx| s.try_start(ctx))?
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
    let mut buf = vec![0u8; 65_536];
    while !d.finished {
        d.fire_due(d.now())?;
        if !d.drain_acks(&mut buf)? && !d.finished {
            d.idle();
        }
    }
    let elapsed = d.start.elapsed();
    Ok(SenderReport {
        elapsed,
        goodput_mbps: cfg.total_bytes as f64 * 8.0 / elapsed.as_secs_f64().max(1e-9) / 1e6,
        sent: d.sent,
        losses: d.sender.losses(),
        final_rate_bps: d.sender.rate_bps().unwrap_or(0.0),
        final_cwnd_pkts: d.sender.cwnd_pkts().unwrap_or(0.0),
        timeouts: d.sender.timeouts(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_pcc_threads_the_wire_mss() {
        // Regression: `send_pcc` must hand the controller the *wire* MSS
        // (`payload + 40`), not leave it at the 1500 B default — the
        // monitor's throughput, the 2·MSS/RTT starting rate, and the rate
        // floor are all denominated in it.
        let cfg = UdpSenderConfig {
            payload: 1200,
            ..Default::default()
        };
        let ctrl = pcc_controller(&cfg, PccConfig::paper());
        assert_eq!(ctrl.mss(), 1240);
        assert_eq!(wire_mss(&cfg), 1240);
    }

    #[test]
    fn engine_config_maps_the_udp_conventions() {
        // Exactly ceil(total / payload) datagrams. Sizing the flow in
        // payload bytes would send 6766 of the default 6991, 3.2% short.
        for (payload, total) in [(1200, 8 << 20), (1200, 1), (1200, 1201), (400, 1_000_003)] {
            let cfg = UdpSenderConfig {
                payload,
                total_bytes: total,
                ..Default::default()
            };
            let t = engine_config(&cfg).transport;
            assert_eq!(t.mss, wire_mss(&cfg));
            assert_eq!(t.size.packets(t.mss), Some(total.div_ceil(payload as u64)));
        }
        let cfg = UdpSenderConfig::default();
        assert_eq!(FlowSize::Bytes(cfg.total_bytes).packets(1240), Some(6766));
        // The loopback RTO floor, one datagram per send, and the budget
        // and report override passed through exactly.
        let e = engine_config(&UdpSenderConfig {
            report: Some(ReportMode::batched_rtt()),
            dead_time_budget: Some(Duration::from_micros(400_250)),
            ..cfg
        });
        assert_eq!(e.min_rto, Some(SimDuration::from_millis(10)));
        assert_eq!((e.tso_burst_pkts, e.max_in_flight), (1, 64));
        assert_eq!(e.report, Some(ReportMode::batched_rtt()));
        assert_eq!(e.dead_time_budget, Some(SimDuration::from_micros(400_250)));
        let off = UdpSenderConfig {
            dead_time_budget: None,
            ..cfg
        };
        assert_eq!(engine_config(&off).dead_time_budget, None);
        assert_eq!(engine_config(&off).report, None);
    }
}
