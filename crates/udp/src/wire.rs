//! Wire format for the UDP transport: a fixed 40-byte data header, a
//! 48-byte ACK frame, no payload compression, everything big-endian. The
//! frames carry the simulator's packet metadata (timestamps truncated to
//! microseconds, the probe-train tag as `tag + 1` with 0 for none), so the
//! same sender engine and receiver drive both datapaths. Encoding is plain
//! `Vec<u8>`/slice work — no external buffer crates.

use pcc_simnet::packet::AckInfo;
use pcc_simnet::time::SimTime;

/// Magic tag guarding against stray datagrams.
pub const MAGIC: u32 = 0x9CC0_2015;
/// Data header length; the payload follows it.
pub const HEADER_LEN: usize = 40;
/// ACK frame length.
const ACK_LEN: usize = HEADER_LEN + 8;

/// A data segment header (payload follows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataHeader {
    /// Packet-granularity sequence number.
    pub seq: u64,
    /// Sender timestamp, microseconds since sender start.
    pub sent_us: u64,
    /// Retransmission flag.
    pub retx: bool,
    /// Probe-train tag (PCP-style probing), echoed back in the ACK.
    pub probe_train: Option<u32>,
}

/// A selective acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckPacket {
    /// The sequence being acknowledged.
    pub acked_seq: u64,
    /// Cumulative ack point.
    pub cum_ack: u64,
    /// Echo of the data packet's `sent_us`.
    pub echo_sent_us: u64,
    /// Receiver timestamp, microseconds since receiver start.
    pub recv_us: u64,
    /// The acked packet was a retransmission.
    pub of_retx: bool,
    /// Echo of the data packet's probe-train tag.
    pub probe_train: Option<u32>,
}

impl AckPacket {
    /// The wire form of a receiver's selective ACK.
    pub fn from_info(info: &AckInfo) -> Self {
        AckPacket {
            acked_seq: info.acked_seq,
            cum_ack: info.cum_ack,
            echo_sent_us: info.echo_sent_at.as_nanos() / 1_000,
            recv_us: info.recv_at.as_nanos() / 1_000,
            of_retx: info.of_retx,
            probe_train: info.probe_train,
        }
    }

    /// The ACK metadata the sender engine consumes.
    pub fn info(&self) -> AckInfo {
        AckInfo {
            acked_seq: self.acked_seq,
            cum_ack: self.cum_ack,
            echo_sent_at: SimTime::from_nanos(self.echo_sent_us.saturating_mul(1_000)),
            recv_at: SimTime::from_nanos(self.recv_us.saturating_mul(1_000)),
            probe_train: self.probe_train,
            of_retx: self.of_retx,
        }
    }
}

/// Either side of the protocol; data payloads borrow from the receive
/// buffer.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame<'a> {
    /// Data with its payload.
    Data(DataHeader, &'a [u8]),
    /// An ACK.
    Ack(AckPacket),
}

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

fn put_tag(buf: &mut Vec<u8>, tag: Option<u32>) {
    put_u64(buf, tag.map_or(0, |t| u64::from(t) + 1));
}

fn get_tag(buf: &[u8], at: usize) -> Option<u32> {
    get_u64(buf, at)
        .checked_sub(1)
        .and_then(|t| u32::try_from(t).ok())
}

fn header(kind: u8, flag: bool) -> Vec<u8> {
    let mut b = Vec::with_capacity(HEADER_LEN);
    b.extend_from_slice(&MAGIC.to_be_bytes());
    b.push(kind);
    b.push(flag as u8);
    b.extend_from_slice(&[0u8; 2]); // reserved
    b
}

/// Encode a data frame.
pub fn encode_data(h: &DataHeader, payload: &[u8]) -> Vec<u8> {
    let mut b = header(KIND_DATA, h.retx);
    b.reserve(HEADER_LEN - b.len() + payload.len());
    put_u64(&mut b, h.seq);
    put_u64(&mut b, h.sent_us);
    put_tag(&mut b, h.probe_train);
    put_u64(&mut b, 0); // reserved
    debug_assert_eq!(b.len(), HEADER_LEN);
    b.extend_from_slice(payload);
    b
}

/// Encode an ACK frame.
pub fn encode_ack(a: &AckPacket) -> Vec<u8> {
    let mut b = header(KIND_ACK, a.of_retx);
    b.reserve(ACK_LEN - b.len());
    put_u64(&mut b, a.acked_seq);
    put_u64(&mut b, a.cum_ack);
    put_u64(&mut b, a.echo_sent_us);
    put_u64(&mut b, a.recv_us);
    put_tag(&mut b, a.probe_train);
    debug_assert_eq!(b.len(), ACK_LEN);
    b
}

/// Decode any frame; `None` for foreign or truncated datagrams.
pub fn decode(buf: &[u8]) -> Option<Frame<'_>> {
    if buf.len() < HEADER_LEN || buf[0..4] != MAGIC.to_be_bytes() {
        return None;
    }
    let kind = buf[4];
    let flag = buf[5] != 0;
    match kind {
        KIND_DATA => Some(Frame::Data(
            DataHeader {
                seq: get_u64(buf, 8),
                sent_us: get_u64(buf, 16),
                retx: flag,
                probe_train: get_tag(buf, 24),
            },
            &buf[HEADER_LEN..],
        )),
        KIND_ACK if buf.len() >= ACK_LEN => Some(Frame::Ack(AckPacket {
            acked_seq: get_u64(buf, 8),
            cum_ack: get_u64(buf, 16),
            echo_sent_us: get_u64(buf, 24),
            recv_us: get_u64(buf, 32),
            of_retx: flag,
            probe_train: get_tag(buf, 40),
        })),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No tag, plus the two ends of the `tag + 1` encoding. PCP's train
    /// tag must survive both directions, or no train ever completes over
    /// real sockets.
    const TAGS: [Option<u32>; 3] = [None, Some(0), Some(u32::MAX)];

    #[test]
    fn data_roundtrip() {
        for probe_train in TAGS {
            let h = DataHeader {
                seq: 123456789,
                sent_us: 42_000_000,
                retx: true,
                probe_train,
            };
            let payload = vec![7u8; 1000];
            let wire = encode_data(&h, &payload);
            assert_eq!(wire.len(), HEADER_LEN + 1000);
            match decode(&wire).expect("decodes") {
                Frame::Data(h2, p) => {
                    assert_eq!(h, h2);
                    assert_eq!(p.len(), 1000);
                    assert!(p.iter().all(|&b| b == 7));
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn ack_roundtrip() {
        for probe_train in TAGS {
            let a = AckPacket {
                acked_seq: 55,
                cum_ack: 50,
                echo_sent_us: 999,
                recv_us: 1001,
                of_retx: false,
                probe_train,
            };
            match decode(&encode_ack(&a)).expect("decodes") {
                Frame::Ack(a2) => {
                    assert_eq!(a, a2);
                    assert_eq!(a2.info().probe_train, probe_train);
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(b"nonsense"), None);
        let mut junk = Vec::new();
        junk.extend_from_slice(&MAGIC.to_be_bytes());
        junk.push(99); // unknown kind
        junk.extend_from_slice(&[0u8; 64]);
        assert_eq!(decode(&junk), None);
        // Truncated, including an ACK cut just short of its tag.
        let a = AckPacket {
            acked_seq: 1,
            cum_ack: 1,
            echo_sent_us: 0,
            recv_us: 0,
            of_retx: false,
            probe_train: Some(3),
        };
        for cut in [10, HEADER_LEN, ACK_LEN - 1] {
            assert_eq!(decode(&encode_ack(&a)[..cut]), None, "cut at {cut}");
        }
    }
}
