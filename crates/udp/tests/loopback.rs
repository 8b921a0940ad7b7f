//! Loopback integration tests: real datagrams, real clock, and the same
//! algorithm objects that drive the simulator — both a rate-based one
//! (PCC) and a window-based one (CUBIC via the registry), proving the
//! real-UDP datapath is algorithm-agnostic. Concurrent transfers and
//! batched reports (with a mid-flight mode switch) run here too.

use std::net::UdpSocket;
use std::thread;

use pcc_core::PccConfig;
use pcc_simnet::time::SimDuration;
use pcc_transport::cc::ReportMode;
use pcc_transport::registry::SpecError;
use pcc_udp::{receive, send_named, send_pcc, UdpSenderConfig};

fn sockets() -> (UdpSocket, UdpSocket, std::net::SocketAddr) {
    let rx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
    let rx_addr = rx_sock.local_addr().expect("addr");
    let tx_sock = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
    (rx_sock, tx_sock, rx_addr)
}

#[test]
fn pcc_transfers_over_loopback() {
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 2 * 1024 * 1024; // 2 MB keeps CI fast
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 3,
        ..Default::default()
    };
    let pcc = PccConfig::paper().with_rtt_hint(SimDuration::from_millis(2));
    let report = send_pcc(&tx_sock, rx_addr, cfg, pcc).expect("send");
    let rx_report = rx.join().expect("join").expect("receive");

    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(report.sent >= total / 1200, "sent at least the payload");
    assert!(
        report.goodput_mbps > 1.0,
        "loopback goodput sane: {} Mbps",
        report.goodput_mbps
    );
    assert!(report.final_rate_bps > 0.0, "PCC drives a rate");
}

#[test]
fn cubic_transfers_over_loopback_via_registry() {
    // A *window* algorithm on the real-UDP datapath, resolved by name —
    // impossible in the seed design, where only RateControllers could
    // drive real sockets.
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 1024 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 7,
        ..Default::default()
    };
    let report = send_named(&tx_sock, rx_addr, cfg, "cubic", SimDuration::from_millis(2))
        .expect("io")
        .expect("cubic is registered");
    let rx_report = rx.join().expect("join").expect("receive");

    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(
        report.final_cwnd_pkts >= 2.0,
        "cubic drives a window: {}",
        report.final_cwnd_pkts
    );
    assert!(
        report.goodput_mbps > 1.0,
        "loopback goodput sane: {} Mbps",
        report.goodput_mbps
    );
}

#[test]
fn unknown_algorithm_is_typed_error_not_panic() {
    let (_rx_sock, tx_sock, rx_addr) = sockets();
    let cfg = UdpSenderConfig::default();
    let err = match send_named(&tx_sock, rx_addr, cfg, "tahoe", SimDuration::from_millis(2))
        .expect("io ok")
    {
        Ok(_) => panic!("tahoe is not registered"),
        Err(SpecError::Unknown(e)) => e,
        Err(other) => panic!("expected Unknown, got {other}"),
    };
    assert_eq!(err.name, "tahoe");
    assert!(err.known.contains(&"cubic".to_string()));
    assert!(
        err.known.contains(&"bbr".to_string()),
        "the hybrid is a registered real-socket citizen"
    );
}

#[test]
fn invalid_spec_param_is_typed_error_not_panic() {
    // The datapath threads parameterized specs through the registry, so a
    // bad key/value surfaces the schema's typed error (listing valid
    // keys) instead of constructing a mis-tuned controller.
    let (_rx_sock, tx_sock, rx_addr) = sockets();
    let cfg = UdpSenderConfig::default();
    let err = match send_named(
        &tx_sock,
        rx_addr,
        cfg,
        "cubic:iw=0",
        SimDuration::from_millis(2),
    )
    .expect("io ok")
    {
        Ok(_) => panic!("iw=0 is out of range"),
        Err(SpecError::InvalidParam(e)) => e,
        Err(other) => panic!("expected InvalidParam, got {other}"),
    };
    assert_eq!(err.algo, "cubic");
    assert!(
        err.valid.iter().any(|k| k.contains("iw")),
        "{:?}",
        err.valid
    );
}

#[test]
fn parameterized_specs_transfer_over_loopback() {
    // The acceptance surface: `name:key=val` resolves on the *real*
    // datapath too — a tuned cubic and a tuned PCC both move real bytes.
    for spec in ["cubic:beta=0.7,iw=32", "pcc:eps=0.05"] {
        let (rx_sock, tx_sock, rx_addr) = sockets();
        let total: u64 = 512 * 1024;
        let rx = thread::spawn(move || receive(&rx_sock, total));
        let cfg = UdpSenderConfig {
            payload: 1200,
            total_bytes: total,
            seed: 13,
            ..Default::default()
        };
        let report = send_named(&tx_sock, rx_addr, cfg, spec, SimDuration::from_millis(2))
            .expect("io")
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        let rx_report = rx.join().expect("join").expect("receive");
        assert!(
            rx_report.unique_bytes >= total,
            "{spec}: all payload arrived"
        );
        assert!(
            report.goodput_mbps > 1.0,
            "{spec}: goodput sane: {} Mbps",
            report.goodput_mbps
        );
    }
}

#[test]
fn bbr_transfers_over_loopback_as_a_hybrid() {
    // The first algorithm to drive *both* machineries of the UDP engine
    // at once: a pacing rate and a congestion window, live simultaneously
    // for the whole transfer.
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 2 * 1024 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed: 11,
        ..Default::default()
    };
    let report = send_named(&tx_sock, rx_addr, cfg, "bbr", SimDuration::from_millis(2))
        .expect("io")
        .expect("bbr is registered");
    let rx_report = rx.join().expect("join").expect("receive");

    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(
        report.final_rate_bps > 0.0,
        "bbr drives a pacing rate: {}",
        report.final_rate_bps
    );
    assert!(
        report.final_cwnd_pkts > 0.0,
        "bbr drives a window too: {}",
        report.final_cwnd_pkts
    );
    assert!(
        report.goodput_mbps > 1.0,
        "loopback goodput sane: {} Mbps",
        report.goodput_mbps
    );
}

#[test]
fn send_pcc_uses_wire_mss_on_a_nonstandard_payload() {
    // Regression for the MSS skew: send_pcc must account with the wire
    // packet size (payload + 40), not the 1500 B default. The wiring
    // itself is asserted by pcc_controller's unit test; this exercises the
    // fixed path end-to-end with a payload far from the default.
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 256 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));

    let cfg = UdpSenderConfig {
        payload: 400,
        total_bytes: total,
        seed: 5,
        ..Default::default()
    };
    let pcc = PccConfig::paper().with_rtt_hint(SimDuration::from_millis(2));
    let report = send_pcc(&tx_sock, rx_addr, cfg, pcc).expect("send");
    let rx_report = rx.join().expect("join").expect("receive");

    assert!(rx_report.unique_bytes >= total, "all payload arrived");
    assert!(report.final_rate_bps > 0.0, "PCC drives a rate");
}

#[test]
fn algorithm_without_operating_point_is_typed_error_not_panic() {
    // An algorithm that sets neither a rate nor a cwnd cannot be enforced.
    // The simulator treats that as a programming error (a panic); over a
    // real socket it is an `InvalidInput` error wrapping the typed cause,
    // and nothing reaches the wire.
    use pcc_transport::cc::{AckEvent, CongestionControl, Ctx, LossEvent};
    use pcc_transport::NoOperatingPoint;
    use pcc_udp::send_with;

    struct Lazy;
    impl CongestionControl for Lazy {
        fn name(&self) -> &'static str {
            "lazy"
        }
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut Ctx) {}
        fn on_loss(&mut self, _loss: &LossEvent, _ctx: &mut Ctx) {}
    }

    let (rx_sock, tx_sock, rx_addr) = sockets();
    let err = send_with(
        &tx_sock,
        rx_addr,
        UdpSenderConfig::default(),
        Box::new(Lazy),
    )
    .expect_err("no operating point, no transfer");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let cause = err
        .get_ref()
        .and_then(|inner| inner.downcast_ref::<NoOperatingPoint>())
        .expect("the io::Error wraps the typed cause");
    assert_eq!(cause.algorithm, "lazy");
    assert!(
        err.to_string().contains("neither a rate nor a cwnd"),
        "{err}"
    );
    rx_sock
        .set_read_timeout(Some(std::time::Duration::from_millis(50)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    assert!(rx_sock.recv_from(&mut buf).is_err(), "no datagram was sent");
}

/// Move 512 KiB with the named algorithm and check every byte landed;
/// returns the sender's goodput in Mbit/s.
fn transfer_512k(name: &str, seed: u64, report: Option<ReportMode>) -> f64 {
    let (rx_sock, tx_sock, rx_addr) = sockets();
    let total: u64 = 512 * 1024;
    let rx = thread::spawn(move || receive(&rx_sock, total));
    let cfg = UdpSenderConfig {
        payload: 1200,
        total_bytes: total,
        seed,
        report,
        ..Default::default()
    };
    let sent = send_named(&tx_sock, rx_addr, cfg, name, SimDuration::from_millis(2))
        .expect("io")
        .expect("registered");
    let rx_report = rx.join().expect("join").expect("receive");
    assert!(rx_report.unique_bytes >= total, "{name}: all bytes arrived");
    sent.goodput_mbps
}

#[test]
fn concurrent_transfers_complete() {
    // Three flows, three algorithms, one process, each engine on its own
    // thread. This shape caught a stall where a lost final ACK left a
    // sender waiting after its receiver had returned.
    let workers: Vec<_> = ["cubic", "pcc", "rate-then-window"]
        .into_iter()
        .zip(31u64..)
        .map(|(name, seed)| thread::spawn(move || (name, transfer_512k(name, seed, None))))
        .collect();
    for w in workers {
        let (name, mbps) = w.join().expect("transfer thread");
        assert!(mbps > 0.5, "{name}: goodput sane: {mbps} Mbps");
    }
}

#[test]
fn batched_reports_move_data_over_loopback() {
    // Force 1-RTT batched reports on the real-socket engine: per-packet
    // callbacks are withheld, the algorithm only hears report boundaries,
    // and the transfer still completes for a window algorithm (cubic), a
    // rate algorithm (sabul), and one that starts rate-paced and switches
    // the engine to Window mid-flight via `Effects::set_mode`
    // (rate-then-window).
    for (name, seed) in [("cubic", 41), ("sabul", 43), ("rate-then-window", 47)] {
        let mbps = transfer_512k(name, seed, Some(ReportMode::batched_rtt()));
        assert!(mbps > 0.5, "{name}: goodput sane: {mbps} Mbps");
    }
}

#[test]
fn pcp_probe_trains_complete_over_loopback() {
    // PCP only leaves its 1 Mbps starting rate when a probe train
    // completes, and a train completes only if its tag travels out in the
    // data header and back in the ACK. With the tag dropped on the wire
    // this transfer crawls near its starting rate (about 1 Mbps).
    let mbps = transfer_512k("pcp", 17, None);
    assert!(mbps > 2.0, "pcp probes past its starting rate: {mbps} Mbps");
}
