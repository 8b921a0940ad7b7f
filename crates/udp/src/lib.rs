//! # pcc-udp — congestion control over real UDP sockets
//!
//! The paper ships a user-space prototype on UDT that "can deliver real
//! data today" (§1). This crate is that shape in Rust, generalized by the
//! unified control API: *any* [`pcc_transport::CongestionControl`] — the
//! same boxed object that runs in the simulator — sends real datagrams
//! over `std::net` UDP sockets. There is no second sender engine here:
//! [`send_with`] is a wall-clock driver around the simulator's own
//! [`pcc_transport::CcSender`], and [`receive`] runs the simulator's
//! [`pcc_transport::SackReceiver`] behind a socket. The engine enforces
//! whatever the algorithm requests: a pacing rate (PCC, SABUL, PCP), a
//! congestion window (any TCP baseline), or both (paced TCP, BBR).
//!
//! Resolve algorithms by name with [`send_named`] (via the workspace
//! registry; unknown names are a typed error) or hand a constructed
//! algorithm to [`send_with`]. Either way the algorithm hears batched
//! [`pcc_transport::MeasurementReport`]s instead of per-ACK callbacks
//! when it (or a [`UdpSenderConfig::report`] override) opts in.
//!
//! See `examples/udp_transfer.rs` at the workspace root for a loopback
//! demonstration (pick the algorithm on the command line), and
//! `crates/udp/tests/loopback.rs` for the integration tests.

pub mod receiver;
pub mod sender;
pub mod wire;

pub use receiver::{receive, ReceiverReport};
pub use sender::{
    install_registry, send_named, send_pcc, send_with, wire_mss, SenderReport, UdpSenderConfig,
};
