//! The path model a BBR-style algorithm maintains: a windowed-max filter
//! over bottleneck-bandwidth samples, a windowed-min RTT tracker, and the
//! per-packet delivery-rate sampler that produces the bandwidth samples.
//!
//! The sampler is the part that makes the model robust: instead of the
//! naive `newly_acked / rtt` (which collapses under aggregated or thinned
//! ACKs), each transmitted packet records how much data had been delivered
//! when it left. When its ACK returns, the *delivery rate* over that
//! packet's flight —
//! `(delivered_now − delivered_at_send) / (now − sent_at)` — measures the
//! rate the network actually sustained, independent of how ACKs were
//! batched on the return path.
//!
//! The sampler runs on every send and every ACK, so its records live in a
//! ring indexed by sequence number: recording, taking and pruning a record
//! are all amortised O(1).

use std::collections::VecDeque;

use pcc_simnet::time::{SimDuration, SimTime};

/// Windowed maximum filter keyed by round-trip count: reports the largest
/// sample seen in the last `window` rounds. Implemented as a monotonic
/// deque, so `update` is amortized O(1).
#[derive(Clone, Debug)]
pub struct MaxBwFilter {
    window: u64,
    /// `(round, sample)` pairs with strictly decreasing samples.
    samples: VecDeque<(u64, f64)>,
}

impl MaxBwFilter {
    /// Filter over the last `window` rounds.
    pub fn new(window: u64) -> Self {
        MaxBwFilter {
            window,
            samples: VecDeque::new(),
        }
    }

    /// Insert a bandwidth sample observed in `round`.
    pub fn update(&mut self, round: u64, sample_bps: f64) {
        while self
            .samples
            .front()
            .is_some_and(|&(r, _)| r + self.window <= round)
        {
            self.samples.pop_front();
        }
        while self.samples.back().is_some_and(|&(_, s)| s <= sample_bps) {
            self.samples.pop_back();
        }
        self.samples.push_back((round, sample_bps));
    }

    /// The windowed maximum, if any sample is live.
    pub fn get(&self) -> Option<f64> {
        self.samples.front().map(|&(_, s)| s)
    }
}

/// Minimum-RTT tracker with an explicit expiry window (10 s in BBR): the
/// minimum only *tightens* inside the window; when no equal-or-lower
/// sample has arrived for `window`, the estimate is stale and the
/// algorithm must deliberately re-probe (ProbeRTT) rather than silently
/// trust an inflated value.
#[derive(Clone, Copy, Debug)]
pub struct MinRttTracker {
    window: SimDuration,
    value: Option<SimDuration>,
    stamp: SimTime,
}

impl MinRttTracker {
    /// Tracker whose estimate expires after `window` without refresh.
    pub fn new(window: SimDuration) -> Self {
        MinRttTracker {
            window,
            value: None,
            stamp: SimTime::ZERO,
        }
    }

    /// Feed an RTT sample. Equal samples refresh the stamp, so a flow
    /// sitting at the propagation delay never needlessly probes.
    pub fn update(&mut self, sample: SimDuration, now: SimTime) {
        if self.value.is_none_or(|v| sample <= v) {
            self.value = Some(sample);
            self.stamp = now;
        }
    }

    /// Replace the estimate outright (ProbeRTT concluded a re-measurement).
    pub fn reset(&mut self, value: SimDuration, now: SimTime) {
        self.value = Some(value);
        self.stamp = now;
    }

    /// Current estimate.
    pub fn get(&self) -> Option<SimDuration> {
        self.value
    }

    /// The configured expiry window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// True when the estimate has gone `window` without a refresh.
    pub fn expired(&self, now: SimTime) -> bool {
        self.value.is_some() && now.saturating_since(self.stamp) > self.window
    }
}

/// Per-packet send record: total packets delivered when this packet left,
/// and when it left.
#[derive(Clone, Copy, Debug)]
struct SendRecord {
    delivered: u64,
    sent_at: SimTime,
}

/// One delivery-rate measurement.
#[derive(Clone, Copy, Debug)]
pub struct RateSample {
    /// Measured delivery rate, bits/sec.
    pub bw_bps: f64,
    /// Total packets delivered when the measured packet was *sent* — the
    /// round-trip marker ("packet.delivered" in BBR's pseudocode).
    pub delivered_at_send: u64,
}

/// Delivery-rate sampler over packet-granularity sequence numbers.
#[derive(Clone, Debug, Default)]
pub struct DeliverySampler {
    delivered: u64,
    /// Slot `i` holds the send record of sequence `base + i`, if that
    /// sequence still has one: an original send, not yet acked, declared
    /// lost or passed by the cumulative ack.
    records: VecDeque<Option<SendRecord>>,
    /// Sequence of the ring's first slot.
    base: u64,
}

impl DeliverySampler {
    /// Fresh sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The record slot of `seq`, if the ring spans it.
    fn slot(&mut self, seq: u64) -> Option<&mut Option<SendRecord>> {
        let i = seq.checked_sub(self.base)?;
        self.records.get_mut(usize::try_from(i).ok()?)
    }

    /// A packet left the sender. Retransmissions are not recorded: an ACK
    /// of a retransmitted sequence is ambiguous about which flight it
    /// measures. Original sends arrive in sequence order, so each record
    /// lands at or past the ring's end.
    pub fn on_sent(&mut self, seq: u64, now: SimTime, retx: bool) {
        if retx {
            return;
        }
        if self.records.is_empty() {
            self.base = seq;
        }
        let Some(i) = seq.checked_sub(self.base) else {
            debug_assert!(false, "original {seq} sent below the sampler's base");
            return;
        };
        let i = i as usize;
        if i >= self.records.len() {
            self.records.resize(i + 1, None);
        }
        self.records[i] = Some(SendRecord {
            delivered: self.delivered,
            sent_at: now,
        });
    }

    /// An ACK advanced delivery by `newly_acked` packets; if `seq` has an
    /// unambiguous send record, return the delivery-rate sample it
    /// completes. `mss` converts packets to wire bits.
    pub fn on_ack(
        &mut self,
        seq: u64,
        cum_ack: u64,
        newly_acked: u32,
        of_retx: bool,
        mss: u32,
        now: SimTime,
    ) -> Option<RateSample> {
        self.delivered += u64::from(newly_acked);
        // Take the acked record *before* pruning: the cumulative ack
        // usually covers `seq` itself.
        let rec = self.slot(seq).and_then(Option::take);
        // Everything below the cumulative ack can never be sampled again.
        let pruned = cum_ack
            .saturating_sub(self.base)
            .min(self.records.len() as u64);
        self.records.drain(..pruned as usize);
        self.base += pruned;
        rate_sample(rec?, self.delivered, of_retx, mss, now)
    }

    /// Sequences were declared lost: their records can no longer produce a
    /// clean sample (any later ACK will be for a retransmission).
    pub fn on_loss(&mut self, seqs: &[u64]) {
        for &seq in seqs {
            if let Some(slot) = self.slot(seq) {
                *slot = None;
            }
        }
    }
}

/// The sample an ACK completes for the packet sent per `rec`, with
/// `delivered` packets now delivered. None for a retransmission's ACK or a
/// zero-length flight.
fn rate_sample(
    rec: SendRecord,
    delivered: u64,
    of_retx: bool,
    mss: u32,
    now: SimTime,
) -> Option<RateSample> {
    if of_retx {
        return None;
    }
    let interval = now.saturating_since(rec.sent_at);
    if interval.is_zero() {
        return None;
    }
    let pkts = delivered.saturating_sub(rec.delivered) as f64;
    Some(RateSample {
        bw_bps: pkts * mss as f64 * 8.0 / interval.as_secs_f64(),
        delivered_at_send: rec.delivered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_filter_reports_window_max_and_expires() {
        let mut f = MaxBwFilter::new(3);
        f.update(0, 10.0);
        f.update(1, 30.0);
        f.update(2, 20.0);
        assert_eq!(f.get(), Some(30.0));
        // Round 4: the round-1 peak leaves the window; 20.0 remains.
        f.update(4, 5.0);
        assert_eq!(f.get(), Some(20.0));
        // Round 5: 20.0 (round 2) expires too.
        f.update(5, 6.0);
        assert_eq!(f.get(), Some(6.0));
    }

    #[test]
    fn min_rtt_tightens_and_expires() {
        let win = SimDuration::from_secs(10);
        let mut m = MinRttTracker::new(win);
        m.update(SimDuration::from_millis(30), SimTime::from_secs(1));
        m.update(SimDuration::from_millis(40), SimTime::from_secs(2));
        assert_eq!(m.get(), Some(SimDuration::from_millis(30)));
        assert!(!m.expired(SimTime::from_secs(11)));
        assert!(m.expired(SimTime::from_secs(12)));
        // An equal sample refreshes the stamp.
        m.update(SimDuration::from_millis(30), SimTime::from_secs(5));
        assert!(!m.expired(SimTime::from_secs(14)));
    }

    #[test]
    fn delivery_rate_is_batching_independent() {
        // 10 packets delivered over 10 ms reads 12 Mbps at MSS 1500
        // whether the ACKs arrive singly or in one cumulative burst.
        let mss = 1500u32;
        let mut s = DeliverySampler::new();
        for seq in 0..10u64 {
            s.on_sent(seq, SimTime::ZERO, false);
        }
        // One aggregated ACK for seq 9 carrying newly_acked = 10.
        let sample = s
            .on_ack(9, 10, 10, false, mss, SimTime::from_millis(10))
            .expect("sampled");
        let expect = 10.0 * 1500.0 * 8.0 / 0.010;
        assert!((sample.bw_bps - expect).abs() < 1.0, "{}", sample.bw_bps);
        assert_eq!(sample.delivered_at_send, 0);
    }

    #[test]
    fn retransmissions_never_produce_samples() {
        let mut s = DeliverySampler::new();
        s.on_sent(0, SimTime::ZERO, false);
        s.on_loss(&[0]);
        s.on_sent(0, SimTime::from_millis(5), true);
        assert!(s
            .on_ack(0, 1, 1, true, 1500, SimTime::from_millis(9))
            .is_none());
        // Delivery still counted: the data did arrive.
        assert_eq!(s.delivered(), 1);
    }

    #[test]
    fn records_pruned_below_cum_ack() {
        let mut s = DeliverySampler::new();
        for seq in 0..100u64 {
            s.on_sent(seq, SimTime::ZERO, false);
        }
        s.on_ack(99, 100, 100, false, 1500, SimTime::from_millis(1));
        // All records at or below the cumulative ack are gone.
        assert!(s
            .on_ack(50, 100, 0, false, 1500, SimTime::from_millis(2))
            .is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Reference model: the sampler with its records in a `BTreeMap`
    /// pruned by `split_off` on every ACK.
    #[derive(Default)]
    struct MapSampler {
        delivered: u64,
        records: BTreeMap<u64, SendRecord>,
    }

    impl MapSampler {
        fn on_sent(&mut self, seq: u64, now: SimTime, retx: bool) {
            if !retx {
                let rec = SendRecord {
                    delivered: self.delivered,
                    sent_at: now,
                };
                self.records.insert(seq, rec);
            }
        }

        fn on_ack(
            &mut self,
            seq: u64,
            cum_ack: u64,
            newly_acked: u32,
            of_retx: bool,
            mss: u32,
            now: SimTime,
        ) -> Option<RateSample> {
            self.delivered += u64::from(newly_acked);
            let rec = self.records.remove(&seq);
            self.records = self.records.split_off(&cum_ack);
            rate_sample(rec?, self.delivered, of_retx, mss, now)
        }

        fn on_loss(&mut self, seqs: &[u64]) {
            for seq in seqs {
                self.records.remove(seq);
            }
        }
    }

    fn bits(s: Option<RateSample>) -> Option<(u64, u64)> {
        s.map(|s| (s.bw_bps.to_bits(), s.delivered_at_send))
    }

    proptest! {
        /// The ring gives the `BTreeMap` sampler's samples, bit for bit,
        /// under originals sent in order (sometimes skipping sequences),
        /// retransmissions, ACKs with holes, reordered and repeated
        /// cumulative points, and losses.
        #[test]
        fn ring_matches_the_map_sample_for_sample(
            script in proptest::collection::vec((0u8..10, 0u64..40, 0u64..4), 1..500),
        ) {
            let mut ring = DeliverySampler::new();
            let mut map = MapSampler::default();
            let mut now = SimTime::ZERO;
            let mut next_seq = 0u64;
            let mut cum = 0u64;
            for (op, a, b) in script {
                now += SimDuration::from_millis(b);
                // ACKs and losses name sequences around the live window.
                let seq = (cum + a).saturating_sub(8);
                match op {
                    0..=3 => {
                        // An original, now and then past a skipped sequence.
                        next_seq += u64::from(a % 16 == 0);
                        ring.on_sent(next_seq, now, false);
                        map.on_sent(next_seq, now, false);
                        next_seq += 1;
                    }
                    4 => {
                        ring.on_sent(seq, now, true);
                        map.on_sent(seq, now, true);
                    }
                    5..=7 => {
                        // Cumulative points mostly advance, but a reordered
                        // ACK can carry an older one.
                        let cum_ack = if b == 0 { cum.saturating_sub(a % 4) } else { (cum + b).min(next_seq) };
                        cum = cum.max(cum_ack);
                        let newly = (a % 5) as u32;
                        let of_retx = a % 7 == 0;
                        prop_assert_eq!(
                            bits(ring.on_ack(seq, cum_ack, newly, of_retx, 1500, now)),
                            bits(map.on_ack(seq, cum_ack, newly, of_retx, 1500, now))
                        );
                    }
                    _ => {
                        let seqs = [seq, seq + b];
                        ring.on_loss(&seqs);
                        map.on_loss(&seqs);
                    }
                }
                prop_assert_eq!(ring.delivered(), map.delivered);
            }
        }
    }
}
