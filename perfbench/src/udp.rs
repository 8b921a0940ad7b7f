//! `udp_loopback`: a 16 MiB PCC transfer over real UDP sockets on the
//! host's loopback interface (not a real link), with `pcc_udp::send_with`
//! on the calling thread and `pcc_udp::receive` on a second one. The
//! engine runs on the wall clock, so this workload is the only one on the
//! UDP datapath's own sender engine; its pacing sleeps, not per-packet
//! CPU, bound the transfer time.

use std::io;
use std::net::UdpSocket;
use std::thread;
use std::time::{Duration, Instant};

use pcc_simnet::time::SimDuration;
use pcc_transport::cc::CongestionControl;
use pcc_transport::{registry, CcParams};
use pcc_udp::{
    install_registry, receive, send_with, wire_mss, ReceiverReport, SenderReport, UdpSenderConfig,
};

use crate::host::{self, median};
use crate::report::{Metrics, Outcome};
use crate::sim::cc_counts;
use crate::trace::{self, Layer, TimedCc, Totals};

/// Payload bytes per transfer.
const TOTAL: u64 = 16 * 1024 * 1024;

/// How long the receiver waits for a datagram before it gives up, so that
/// a stalled sender cannot leave it blocked.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

fn config(seed: u64) -> UdpSenderConfig {
    UdpSenderConfig {
        payload: 1200,
        total_bytes: TOTAL,
        seed,
        ..Default::default()
    }
}

/// The algorithm as `send_named("pcc", ..)` resolves it.
fn pcc(cfg: &UdpSenderConfig) -> Box<dyn CongestionControl> {
    let params = CcParams::default()
        .with_mss(wire_mss(cfg))
        .with_rtt_hint(SimDuration::from_millis(1));
    registry::by_name("pcc", &params).expect("pcc is registered")
}

/// Set-up: the registry, both sockets, and the receiver thread.
fn sockets() -> io::Result<(UdpSocket, UdpSocket)> {
    install_registry();
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    rx.set_read_timeout(Some(RECV_TIMEOUT))?;
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    Ok((rx, tx))
}

/// One transfer's outcome.
struct Transfer {
    wall_s: f64,
    sent: io::Result<SenderReport>,
    received: io::Result<ReceiverReport>,
    tx_cpu_s: f64,
    rx_cpu_s: f64,
    /// Spans recorded on the sender thread.
    totals: Totals,
}

impl Transfer {
    /// Delivered every byte without an error on either side.
    fn ok(&self) -> bool {
        self.sent.is_ok()
            && self
                .received
                .as_ref()
                .is_ok_and(|r| r.unique_bytes >= TOTAL)
    }
}

fn transfer(seed: u64, traced: bool) -> io::Result<Transfer> {
    let (rx, tx) = sockets()?;
    let peer = rx.local_addr()?;
    let cfg = config(seed);
    let cc = if traced {
        Box::new(TimedCc::new(pcc(&cfg)))
    } else {
        pcc(&cfg)
    };
    thread::scope(|s| {
        let receiver = s.spawn(move || {
            let cpu0 = host::thread_cpu_ns();
            let r = receive(&rx, TOTAL);
            (r, (host::thread_cpu_ns() - cpu0) as f64 / 1e9)
        });
        let _ = trace::take();
        let cpu0 = host::thread_cpu_ns();
        let t0 = Instant::now();
        let sent = send_with(&tx, peer, cfg, cc);
        let tx_cpu_s = (host::thread_cpu_ns() - cpu0) as f64 / 1e9;
        let totals = trace::take();
        let (received, rx_cpu_s) = receiver.join().expect("receiver thread panicked");
        Ok(Transfer {
            wall_s: t0.elapsed().as_secs_f64(),
            sent,
            received,
            tx_cpu_s,
            rx_cpu_s,
            totals,
        })
    })
}

fn report_error(t: &Transfer) {
    if let Err(e) = &t.sent {
        eprintln!("udp_loopback: sender failed: {e}");
    }
    match &t.received {
        Err(e) => eprintln!("udp_loopback: receiver failed: {e}"),
        Ok(r) if r.unique_bytes < TOTAL => {
            eprintln!(
                "udp_loopback: receiver got {} of {TOTAL} bytes",
                r.unique_bytes
            )
        }
        Ok(_) => {}
    }
}

/// End-to-end run: transfers repeated for `seconds`.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let mut setup = || {
        let (rx, tx) = sockets().expect("loopback sockets bind");
        (thread::spawn(move || receive(&rx, 0)), tx)
    };
    let mut teardown =
        |(receiver, _tx): (thread::JoinHandle<io::Result<ReceiverReport>>, UdpSocket)| {
            receiver
                .join()
                .expect("receiver thread panicked")
                .expect("an empty receive succeeds");
        };
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut walls, mut goodputs, mut cpu_per_gb, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while out.attempted < 3 || started.elapsed() < seconds {
        setups.extend(host::time_setup(5, &mut setup, &mut teardown));
        out.attempted += 1;
        let t = match transfer(seed, false) {
            Ok(t) if t.ok() => t,
            Ok(t) => {
                report_error(&t);
                out.failed += 1;
                continue;
            }
            Err(e) => {
                eprintln!("udp_loopback: set-up failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        walls.push(t.wall_s);
        goodputs.push(TOTAL as f64 * 8.0 / t.wall_s / 1e6);
        cpu_per_gb.push((t.tx_cpu_s + t.rx_cpu_s) / (TOTAL as f64 / 1e9));
    }
    out.correct = out.failed == 0;
    println!(
        "udp_loopback: {} transfers of {TOTAL} bytes over loopback, {} failed",
        out.attempted, out.failed
    );
    let m = &mut out.metrics;
    m.set("wall_s", median(&walls));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", host::peak_rss_mb());
    m.set("goodput_mbps", median(&goodputs));
    m.set("cpu_s_per_gb", median(&cpu_per_gb));
    out
}

/// Traced run: untraced and traced transfers in pairs for `seconds`.
pub fn run_traced(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut runs = Vec::new();
    let started = Instant::now();
    while out.attempted < 6 || started.elapsed() < seconds {
        out.attempted += 2;
        let cal = trace::calibrate();
        let (plain, traced) = match (transfer(seed, false), transfer(seed, true)) {
            (Ok(p), Ok(t)) if p.ok() && t.ok() => (p, t),
            (p, t) => {
                for r in [p, t] {
                    match r {
                        Ok(x) if x.ok() => {}
                        Ok(x) => {
                            report_error(&x);
                            out.failed += 1;
                        }
                        Err(e) => {
                            eprintln!("udp_loopback: set-up failed: {e}");
                            out.failed += 1;
                        }
                    }
                }
                continue;
            }
        };
        let sent = traced.sent.as_ref().expect("checked by ok()");
        let received = traced.received.as_ref().expect("checked by ok()");
        let t = &traced.totals;
        let cc_calls = t.layer(Layer::Cc).calls;
        let cc_ns = t.corrected_self_ns(Layer::Cc, &cal);
        let mut m = Metrics::default();
        m.set("cc.self_s", cc_ns / 1e9);
        m.set("cc.ns_per_call", cc_ns / cc_calls.max(1) as f64);
        cc_counts(&mut m, t);
        m.set("udp.sender.cpu_s", traced.tx_cpu_s);
        m.set("udp.sender.busy_frac", traced.tx_cpu_s / traced.wall_s);
        m.set("udp.sender.datagrams", sent.sent as f64);
        m.set("udp.sender.losses", sent.losses as f64);
        m.set("udp.receiver.cpu_s", traced.rx_cpu_s);
        m.set("udp.receiver.duplicates", received.duplicates as f64);
        m.set(
            "trace.overhead_frac",
            traced.tx_cpu_s / plain.tx_cpu_s - 1.0,
        );
        m.set("trace.timer_ns", cal.timer_ns);
        runs.push(m);
    }
    out.correct = out.failed == 0;
    out.metrics = Metrics::median_of(&runs);
    crate::finish_traced(&mut out);
    out
}
