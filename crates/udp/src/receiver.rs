//! The UDP receiver: the simulator's [`SackReceiver`] over a real socket.
//! Every datagram is decoded into a data packet, handed to the receiver
//! endpoint, and the selective ACK it emits goes back to the sender.

use std::net::UdpSocket;
use std::time::Instant;

use pcc_simnet::endpoint::{Action, Endpoint, EndpointCtx};
use pcc_simnet::ids::{FlowId, Side};
use pcc_simnet::packet::{Packet, PacketKind};
use pcc_simnet::rng::SimRng;
use pcc_simnet::time::SimTime;
use pcc_transport::receiver::SackReceiver;

use crate::wire::{decode, encode_ack, AckPacket, Frame};

/// Outcome of one receive session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReceiverReport {
    /// Unique data bytes accepted.
    pub unique_bytes: u64,
    /// Total datagrams seen.
    pub datagrams: u64,
    /// Duplicates among them.
    pub duplicates: u64,
}

/// Receive `expected_bytes` of payload on `socket`, acking every datagram,
/// then return. ACKs go to whichever address each datagram came from.
#[expect(
    clippy::disallowed_methods,
    reason = "real sockets run on the wall clock; no simulated result reads it"
)]
pub fn receive(socket: &UdpSocket, expected_bytes: u64) -> std::io::Result<ReceiverReport> {
    let start = Instant::now();
    let mut buf = vec![0u8; 65_536];
    let mut rx = SackReceiver::new();
    // The receiver draws no randomness; the context just needs a stream.
    let mut rng = SimRng::new(0);
    let mut actions = Vec::new();
    socket.set_nonblocking(false)?;
    while rx.recv_bytes() < expected_bytes {
        let (n, from) = match socket.recv_from(&mut buf) {
            Ok(ok) => ok,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let Some(Frame::Data(h, payload)) = decode(&buf[..n]) else {
            continue;
        };
        // Goodput counts payload bytes, so the packet's size is the payload.
        let sent_at = SimTime::from_nanos(h.sent_us.saturating_mul(1_000));
        let mut pkt = Packet::data(FlowId(0), h.seq, payload.len() as u32, sent_at, h.retx);
        if let PacketKind::Data(d) = &mut pkt.kind {
            d.probe_train = h.probe_train;
        }
        let now = SimTime::from_nanos(start.elapsed().as_nanos() as u64);
        rx.on_packet(
            &pkt,
            &mut EndpointCtx::new(now, FlowId(0), Side::Receiver, &mut rng, &mut actions),
        );
        for action in actions.drain(..) {
            if let Action::Send(ack) = action {
                if let Some(info) = ack.as_ack() {
                    socket.send_to(&encode_ack(&AckPacket::from_info(info)), from)?;
                }
            }
        }
    }
    Ok(ReceiverReport {
        unique_bytes: rx.recv_bytes(),
        datagrams: rx.packets_seen(),
        duplicates: rx.duplicates(),
    })
}
