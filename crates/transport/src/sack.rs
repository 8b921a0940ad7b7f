//! The SACK scoreboard: per-packet fate tracking and loss detection.
//!
//! Both sender kinds (window-based TCP and rate-based PCC/SABUL/PCP) share
//! this structure. It records every transmission, matches incoming selective
//! ACKs, and detects losses two ways:
//!
//! * **Reordering threshold** (RFC 6675 `DupThresh`): an unacked original
//!   transmission is lost once a packet sent ≥ 3 sequence numbers later has
//!   been SACKed.
//! * **Timeout**: any transmission (including retransmissions, whose
//!   sequence-based detection would be ambiguous) is lost once it has been
//!   outstanding longer than the supplied RTO.
//!
//! Both rules run on every ACK, so each costs amortised O(1) per packet
//! rather than a sweep of the window. The reordering rule resumes where its
//! last scan stopped. The timeout rule splits transmissions in two:
//! original sends leave in sequence order at nondecreasing times, so a
//! cursor walks them oldest first and stops at the first one that has not
//! expired; retransmissions, which can target any sequence, are queued in
//! send order and popped while expired. Each entry and each queued
//! retransmission is passed over once, whatever the RTO does between calls.

use std::collections::VecDeque;

use pcc_simnet::packet::AckInfo;
use pcc_simnet::time::{SimDuration, SimTime};

/// Fate of one sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SeqState {
    /// In flight, fate unknown.
    Outstanding,
    /// SACKed (or cumulatively acked).
    Acked,
    /// Declared lost, waiting for retransmission to be scheduled.
    Lost,
}

#[derive(Clone, Copy, Debug)]
struct SeqEntry {
    state: SeqState,
    /// Time of the most recent transmission of this sequence.
    last_sent_at: SimTime,
    /// Number of retransmissions so far (0 = original only).
    retx_count: u32,
}

/// Outcome of processing one ACK.
#[derive(Clone, Copy, Debug, Default)]
pub struct AckOutcome {
    /// Sequences newly acknowledged (cumulative + selective) by this ACK.
    pub newly_acked: u64,
    /// Exact RTT of the acknowledged transmission (receiver echoes the
    /// packet's send timestamp, so even retransmissions yield clean samples).
    pub rtt: Option<SimDuration>,
    /// This ACK acknowledged something not seen before.
    pub advanced: bool,
}

/// SACK scoreboard over packet-granularity sequence numbers.
#[derive(Clone, Debug)]
pub struct Scoreboard {
    /// Entry `i` describes sequence `base + i`.
    entries: VecDeque<SeqEntry>,
    /// All sequences `< base` are acked and pruned.
    base: u64,
    /// Highest sequence ever sent, plus one.
    high_seq: u64,
    /// Highest SACKed sequence, plus one (0 = nothing sacked).
    high_sacked: u64,
    /// Packets currently considered in flight.
    in_flight: u64,
    /// Total losses declared.
    losses: u64,
    /// Reordering threshold in packets.
    dup_thresh: u64,
    /// The timeout rule's cursor over original transmissions: no sequence
    /// below it is an `Outstanding` original (`retx_count == 0`). An entry
    /// never becomes one again once it is acked, lost or retransmitted, and
    /// originals are sent in sequence order at nondecreasing times, so the
    /// rule walks forward from here and stops at the first original that
    /// has not expired — every later original was sent no earlier.
    timeout_cursor: u64,
    /// `(sent_at, seq)` of every retransmission, in send order (so also in
    /// time order), for the timeout rule to pop once expired. A popped
    /// record still describes its entry only if that entry is
    /// `Outstanding` with `last_sent_at == sent_at`; otherwise the entry
    /// was acked, lost or retransmitted again since, and the record is
    /// stale. Holds at most the retransmissions of the last RTO.
    retx_sends: VecDeque<(SimTime, u64)>,
    /// Sequences below this have already been judged by the reordering
    /// rule. Once a scan reaches a cutoff, no entry below it can ever
    /// qualify again (originals there were marked `Lost` on the spot and
    /// retransmissions carry `retx_count > 0`, which the rule excludes),
    /// so the next scan resumes here instead of re-walking from `base` —
    /// without this, a single unrepaired hole pinning `base` makes every
    /// ACK rescan the whole outstanding window, turning a loss-heavy run
    /// quadratic.
    reorder_floor: u64,
    /// Entries and queued retransmissions the timeout rule has looked at,
    /// over the scoreboard's lifetime.
    #[cfg(test)]
    timeout_visits: u64,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Self::new()
    }
}

impl Scoreboard {
    /// Empty scoreboard with the standard reordering threshold of 3.
    pub fn new() -> Self {
        Scoreboard {
            entries: VecDeque::new(),
            base: 0,
            high_seq: 0,
            high_sacked: 0,
            in_flight: 0,
            losses: 0,
            dup_thresh: 3,
            timeout_cursor: 0,
            retx_sends: VecDeque::new(),
            reorder_floor: 0,
            #[cfg(test)]
            timeout_visits: 0,
        }
    }

    fn entry(&self, seq: u64) -> Option<&SeqEntry> {
        if seq < self.base {
            return None;
        }
        self.entries.get((seq - self.base) as usize)
    }

    /// Index of `seq` in `entries`, if tracked.
    fn idx(&self, seq: u64) -> Option<usize> {
        if seq < self.base {
            return None;
        }
        let i = (seq - self.base) as usize;
        (i < self.entries.len()).then_some(i)
    }

    /// Record a transmission of `seq` at `now`. New sequences must be sent
    /// in order; retransmissions may target any outstanding sequence.
    pub fn on_send(&mut self, seq: u64, now: SimTime, retx: bool) {
        if !retx {
            assert_eq!(seq, self.high_seq, "new data must be sent in order");
            self.entries.push_back(SeqEntry {
                state: SeqState::Outstanding,
                last_sent_at: now,
                retx_count: 0,
            });
            self.high_seq += 1;
            self.in_flight += 1;
        } else if let Some(i) = self.idx(seq) {
            let e = &mut self.entries[i];
            debug_assert_ne!(e.state, SeqState::Acked, "retransmitting acked seq");
            if e.state == SeqState::Lost {
                // Back in flight.
                self.in_flight += 1;
            }
            e.state = SeqState::Outstanding;
            e.last_sent_at = now;
            e.retx_count += 1;
            self.retx_sends.push_back((now, seq));
        }
    }

    /// Process a SACK. Returns what the ACK newly covered.
    pub fn on_ack(&mut self, info: &AckInfo, now: SimTime) -> AckOutcome {
        let mut out = AckOutcome::default();
        // Selective part.
        if let Some(i) = self.idx(info.acked_seq) {
            let e = &mut self.entries[i];
            if e.state != SeqState::Acked {
                if e.state == SeqState::Outstanding {
                    self.in_flight -= 1;
                }
                e.state = SeqState::Acked;
                out.newly_acked += 1;
                out.advanced = true;
                out.rtt = Some(now.saturating_since(info.echo_sent_at));
            }
        }
        if info.acked_seq + 1 > self.high_sacked {
            self.high_sacked = info.acked_seq + 1;
            out.advanced = true;
        }
        // Cumulative part: everything below cum_ack is acked.
        if info.cum_ack > self.base {
            let upto = info.cum_ack.min(self.high_seq);
            for seq in self.base..upto {
                let i = (seq - self.base) as usize;
                let e = &mut self.entries[i];
                if e.state != SeqState::Acked {
                    if e.state == SeqState::Outstanding {
                        self.in_flight -= 1;
                    }
                    e.state = SeqState::Acked;
                    out.newly_acked += 1;
                    out.advanced = true;
                }
            }
            self.high_sacked = self.high_sacked.max(upto);
            // Prune.
            while self.base < upto {
                self.entries.pop_front();
                self.base += 1;
            }
        }
        out
    }

    /// Declare losses per the reordering-threshold and timeout rules.
    /// Returns the newly lost sequences (oldest first); the caller should
    /// queue them for retransmission.
    ///
    /// This runs on every ACK, so neither rule sweeps the window: reorder
    /// candidates all sit in the SACK-hole region `[base, dup_cutoff)`
    /// past the last scan (empty for an in-order flow), and the timeout
    /// rule walks its cursor over originals and pops its queue of
    /// retransmissions only as far as they have expired.
    pub fn detect_losses(&mut self, now: SimTime, rto: SimDuration) -> Vec<u64> {
        let mut lost = Vec::new();
        self.expire_reordered(&mut lost);
        self.expire_originals(now, rto, &mut lost);
        self.expire_retransmissions(now, rto, &mut lost);
        // Each pass emits in ascending order except the retransmission
        // queue, which pops in send order; restore the global oldest-first
        // contract when the passes interleave.
        if !lost.is_sorted() {
            lost.sort_unstable();
        }
        lost
    }

    /// Mark `seq` (tracked, `Outstanding`) lost.
    fn declare_lost(&mut self, seq: u64, lost: &mut Vec<u64>) {
        let i = (seq - self.base) as usize;
        self.entries[i].state = SeqState::Lost;
        self.in_flight -= 1;
        self.losses += 1;
        lost.push(seq);
    }

    /// Reordering rule: only *original* transmissions below the SACK
    /// frontier minus DupThresh qualify, and everything below `base` is
    /// acked — so the candidates live in `[base, dup_cutoff)`.
    fn expire_reordered(&mut self, lost: &mut Vec<u64>) {
        let dup_cutoff = self.high_sacked.saturating_sub(self.dup_thresh);
        let start = self.base.max(self.reorder_floor);
        if dup_cutoff > start {
            let end = dup_cutoff.min(self.high_seq);
            for seq in start..end {
                let e = &self.entries[(seq - self.base) as usize];
                if e.state == SeqState::Outstanding && e.retx_count == 0 {
                    self.declare_lost(seq, lost);
                }
            }
            self.reorder_floor = end;
        }
    }

    /// Timeout rule over original transmissions: advance the cursor past
    /// entries that are no longer outstanding originals, declaring expired
    /// ones lost, and stop at the first original that has not expired.
    fn expire_originals(&mut self, now: SimTime, rto: SimDuration, lost: &mut Vec<u64>) {
        let mut seq = self.timeout_cursor.max(self.base);
        while seq < self.high_seq {
            #[cfg(test)]
            {
                self.timeout_visits += 1;
            }
            let e = &self.entries[(seq - self.base) as usize];
            if e.state == SeqState::Outstanding && e.retx_count == 0 {
                if now.saturating_since(e.last_sent_at) < rto {
                    break;
                }
                self.declare_lost(seq, lost);
            }
            seq += 1;
        }
        self.timeout_cursor = seq;
    }

    /// Timeout rule over retransmissions: pop every expired record and
    /// declare its entry lost if the record still describes it.
    fn expire_retransmissions(&mut self, now: SimTime, rto: SimDuration, lost: &mut Vec<u64>) {
        while let Some(&(sent_at, seq)) = self.retx_sends.front() {
            if now.saturating_since(sent_at) < rto {
                break;
            }
            self.retx_sends.pop_front();
            #[cfg(test)]
            {
                self.timeout_visits += 1;
            }
            if matches!(self.entry(seq), Some(e)
                if e.state == SeqState::Outstanding && e.last_sent_at == sent_at)
            {
                self.declare_lost(seq, lost);
            }
        }
    }

    /// Declare every outstanding packet lost (used on RTO).
    pub fn mark_all_lost(&mut self) -> Vec<u64> {
        let mut lost = Vec::new();
        for seq in self.base..self.high_seq {
            if self.entries[(seq - self.base) as usize].state == SeqState::Outstanding {
                self.declare_lost(seq, &mut lost);
            }
        }
        // Nothing is outstanding any more: no original is left for the
        // cursor and every queued retransmission record is stale.
        self.timeout_cursor = self.high_seq;
        self.retx_sends.clear();
        lost
    }

    /// Every sequence currently marked lost (awaiting retransmission),
    /// oldest first — the set an RTO must requeue. This is a superset of
    /// what [`Scoreboard::mark_all_lost`] just returned: sequences
    /// declared lost *earlier* (and possibly dropped from a
    /// retransmission queue since) are still here.
    pub fn lost_seqs(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state == SeqState::Lost)
            .map(|(i, _)| self.base + i as u64)
            .collect()
    }

    /// Oldest sequence not yet acked, if any (`== cum ack` point).
    pub fn oldest_unacked(&self) -> Option<u64> {
        for i in 0..self.entries.len() {
            if self.entries[i].state != SeqState::Acked {
                return Some(self.base + i as u64);
            }
        }
        None
    }

    /// True when every sequence below `upper` has been acked.
    pub fn all_acked_below(&self, upper: u64) -> bool {
        if self.base >= upper {
            return true;
        }
        // Nothing at or above the SACK frontier is acked (and `high_sacked
        // <= high_seq`), so a frontier below `upper` answers without the
        // scan — the common case for every mid-flow call.
        if self.high_sacked < upper || self.high_seq < upper {
            return false;
        }
        (self.base..upper.min(self.high_seq))
            .all(|seq| matches!(self.entry(seq), Some(e) if e.state == SeqState::Acked))
    }

    /// Packets currently in flight (sent, not acked, not declared lost).
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Entries currently tracked (the `base..next_seq` window). Memory is
    /// proportional to this; the engine bounds it against its in-flight
    /// cap as a leak tripwire.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Retransmission records queued for the timeout rule. Bounded by the
    /// retransmissions of the last RTO; the engine checks it against the
    /// same leak tripwire as [`Scoreboard::tracked`].
    pub fn queued_retransmissions(&self) -> usize {
        self.retx_sends.len()
    }

    /// Cumulative-ack point (all sequences below are acked and pruned —
    /// equals `base`, which may lag the true cum-ack until pruning).
    pub fn cum_ack(&self) -> u64 {
        self.base
    }

    /// Next fresh sequence number.
    pub fn next_seq(&self) -> u64 {
        self.high_seq
    }

    /// Highest SACKed sequence plus one.
    pub fn high_sacked(&self) -> u64 {
        self.high_sacked
    }

    /// Total losses declared over the scoreboard's lifetime.
    pub fn total_losses(&self) -> u64 {
        self.losses
    }

    /// Retransmission count for `seq` (0 when unknown).
    pub fn retx_count(&self, seq: u64) -> u32 {
        self.entry(seq).map(|e| e.retx_count).unwrap_or(0)
    }

    /// True if `seq` is currently marked lost (awaiting retransmission).
    pub fn is_lost(&self, seq: u64) -> bool {
        matches!(self.entry(seq), Some(e) if e.state == SeqState::Lost)
    }

    /// True if `seq` has been acked (or pruned, implying acked).
    pub fn is_acked(&self, seq: u64) -> bool {
        seq < self.base || matches!(self.entry(seq), Some(e) if e.state == SeqState::Acked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn ack(acked_seq: u64, cum_ack: u64, sent_at: SimTime) -> AckInfo {
        AckInfo {
            acked_seq,
            cum_ack,
            echo_sent_at: sent_at,
            recv_at: SimTime::ZERO,
            probe_train: None,
            of_retx: false,
        }
    }

    #[test]
    fn in_order_ack_flow() {
        let mut sb = Scoreboard::new();
        for s in 0..5 {
            sb.on_send(s, t(s), false);
        }
        assert_eq!(sb.in_flight(), 5);
        let out = sb.on_ack(&ack(0, 1, t(0)), t(30));
        assert_eq!(out.newly_acked, 1);
        assert_eq!(out.rtt, Some(SimDuration::from_millis(30)));
        assert_eq!(sb.cum_ack(), 1);
        assert_eq!(sb.in_flight(), 4);
        let out = sb.on_ack(&ack(4, 5, t(4)), t(34));
        assert_eq!(out.newly_acked, 4, "cumulative covers 1..4 plus sack of 4");
        assert_eq!(sb.in_flight(), 0);
        assert!(sb.all_acked_below(5));
    }

    #[test]
    fn duplicate_ack_is_no_op() {
        let mut sb = Scoreboard::new();
        sb.on_send(0, t(0), false);
        let first = sb.on_ack(&ack(0, 1, t(0)), t(10));
        assert_eq!(first.newly_acked, 1);
        let dup = sb.on_ack(&ack(0, 1, t(0)), t(12));
        assert_eq!(dup.newly_acked, 0);
        assert!(!dup.advanced);
        assert_eq!(dup.rtt, None);
    }

    #[test]
    fn reorder_threshold_loss() {
        let mut sb = Scoreboard::new();
        for s in 0..6 {
            sb.on_send(s, t(s), false);
        }
        // Seq 0 never arrives; SACKs for 1, 2, 3 arrive.
        for s in 1..=3 {
            sb.on_ack(&ack(s, 0, t(s)), t(30 + s));
        }
        // high_sacked = 4, dup_thresh 3 => seqs < 1 are lost.
        let lost = sb.detect_losses(t(40), SimDuration::from_secs(60));
        assert_eq!(lost, vec![0]);
        assert!(sb.is_lost(0));
        assert_eq!(sb.total_losses(), 1);
        // A second scan declares nothing new.
        assert!(sb
            .detect_losses(t(41), SimDuration::from_secs(60))
            .is_empty());
    }

    #[test]
    fn timeout_loss_for_retransmission() {
        let mut sb = Scoreboard::new();
        for s in 0..5 {
            sb.on_send(s, t(0), false);
        }
        for s in 1..=4 {
            sb.on_ack(&ack(s, 0, t(0)), t(20 + s));
        }
        let lost = sb.detect_losses(t(30), SimDuration::from_secs(60));
        assert_eq!(lost, vec![0]);
        // Retransmit seq 0; it's back in flight and immune to the
        // reordering rule (retx_count > 0)...
        sb.on_send(0, t(31), true);
        assert!(sb
            .detect_losses(t(32), SimDuration::from_secs(60))
            .is_empty());
        // ...but a timeout declares it lost again.
        let lost = sb.detect_losses(t(300), SimDuration::from_millis(200));
        assert_eq!(lost, vec![0]);
        assert_eq!(sb.retx_count(0), 1);
    }

    #[test]
    fn mark_all_lost_on_rto() {
        let mut sb = Scoreboard::new();
        for s in 0..4 {
            sb.on_send(s, t(0), false);
        }
        sb.on_ack(&ack(1, 0, t(0)), t(10));
        let lost = sb.mark_all_lost();
        assert_eq!(lost, vec![0, 2, 3]);
        assert_eq!(sb.in_flight(), 0);
    }

    #[test]
    fn lost_seqs_includes_previously_declared_losses() {
        // Regression for the RTO requeue path: seq 0 is declared lost by a
        // scan; seq 2 is still outstanding when the RTO marks all lost.
        // `mark_all_lost` reports only the newly lost seq 2, but the full
        // lost set — what an RTO must requeue — is {0, 2}.
        let mut sb = Scoreboard::new();
        for s in 0..3 {
            sb.on_send(s, t(0), false);
        }
        sb.on_ack(&ack(1, 0, t(0)), t(10));
        let scan_lost = sb.detect_losses(t(300), SimDuration::from_millis(100));
        assert_eq!(scan_lost, vec![0, 2]);
        sb.on_send(2, t(301), true); // 2 retransmitted, back in flight
        let rto_lost = sb.mark_all_lost();
        assert_eq!(rto_lost, vec![2], "only the outstanding retransmission");
        assert_eq!(sb.lost_seqs(), vec![0, 2], "the full requeue set");
    }

    #[test]
    fn oldest_unacked_tracking() {
        let mut sb = Scoreboard::new();
        assert_eq!(sb.oldest_unacked(), None);
        for s in 0..3 {
            sb.on_send(s, t(s), false);
        }
        assert_eq!(sb.oldest_unacked(), Some(0));
        sb.on_ack(&ack(0, 1, t(0)), t(10));
        assert_eq!(sb.oldest_unacked(), Some(1));
        sb.on_ack(&ack(2, 1, t(2)), t(12));
        assert_eq!(sb.oldest_unacked(), Some(1), "hole at 1");
    }

    #[test]
    fn retx_restores_inflight_accounting() {
        let mut sb = Scoreboard::new();
        sb.on_send(0, t(0), false);
        sb.on_send(1, t(0), false);
        sb.on_send(2, t(0), false);
        sb.on_send(3, t(0), false);
        for s in 1..=3 {
            sb.on_ack(&ack(s, 0, t(0)), t(10));
        }
        assert_eq!(sb.in_flight(), 1);
        let lost = sb.detect_losses(t(20), SimDuration::from_secs(60));
        assert_eq!(lost, vec![0]);
        assert_eq!(sb.in_flight(), 0);
        sb.on_send(0, t(21), true);
        assert_eq!(sb.in_flight(), 1);
        sb.on_ack(&ack(0, 4, t(21)), t(40));
        assert_eq!(sb.in_flight(), 0);
        assert!(sb.all_acked_below(4));
        assert_eq!(sb.cum_ack(), 4);
    }

    #[test]
    fn prune_keeps_indices_valid() {
        let mut sb = Scoreboard::new();
        for s in 0..100 {
            sb.on_send(s, t(s), false);
        }
        sb.on_ack(&ack(49, 50, t(49)), t(80));
        assert_eq!(sb.cum_ack(), 50);
        // Later sequences still addressable.
        sb.on_ack(&ack(75, 50, t(75)), t(100));
        assert!(sb.is_acked(75));
        assert!(!sb.is_acked(74));
        assert!(sb.is_acked(10), "pruned implies acked");
    }

    #[test]
    fn all_acked_below_requires_data_sent() {
        let mut sb = Scoreboard::new();
        sb.on_send(0, t(0), false);
        sb.on_ack(&ack(0, 1, t(0)), t(1));
        assert!(sb.all_acked_below(1));
        assert!(!sb.all_acked_below(5), "seqs 1..5 never sent");
    }

    impl Scoreboard {
        /// Reference model of [`Scoreboard::detect_losses`]: the same
        /// reordering rule, then the timeout rule as a sweep of the whole
        /// window declaring every `Outstanding` entry that has been in
        /// flight for `rto` lost.
        pub(super) fn detect_losses_by_sweep(
            &mut self,
            now: SimTime,
            rto: SimDuration,
        ) -> Vec<u64> {
            let mut lost = Vec::new();
            self.expire_reordered(&mut lost);
            for seq in self.base..self.high_seq {
                let e = &self.entries[(seq - self.base) as usize];
                if e.state == SeqState::Outstanding && now.saturating_since(e.last_sent_at) >= rto {
                    self.declare_lost(seq, &mut lost);
                }
            }
            lost.sort_unstable();
            lost
        }
    }

    /// Drive `sb` the way a rate-mode sender does: one original every
    /// `gap`, each SACKed (with the receiver's cumulative point) one `rtt`
    /// later, and after every ACK a loss scan whose losses are
    /// retransmitted on the spot. Originals with `seq % 100 == 37` are
    /// dropped (1% holes, which the reordering rule finds), and so is the
    /// first retransmission of every third hole, which only the timeout
    /// rule can find. Returns every scan's losses, in order.
    fn rate_mode_ack_clock(
        sb: &mut Scoreboard,
        acks: u64,
        rtt: SimDuration,
        gap: SimDuration,
        mut scan: impl FnMut(&mut Scoreboard, SimTime) -> Vec<u64>,
    ) -> Vec<Vec<u64>> {
        let mut scans = Vec::new();
        // `(arrive_at, seq, sent_at)`, in arrival order: every packet
        // takes exactly `rtt`.
        let mut arrivals: VecDeque<(SimTime, u64, SimTime)> = VecDeque::new();
        let mut received: Vec<bool> = Vec::new();
        let mut cum = 0u64;
        let mut next_send = SimTime::ZERO;
        while (scans.len() as u64) < acks {
            match arrivals.front() {
                Some(&(now, seq, sent_at)) if now <= next_send => {
                    arrivals.pop_front();
                    received[seq as usize] = true;
                    while received.get(cum as usize) == Some(&true) {
                        cum += 1;
                    }
                    let info = AckInfo {
                        acked_seq: seq,
                        cum_ack: cum,
                        echo_sent_at: sent_at,
                        recv_at: now,
                        probe_train: None,
                        of_retx: sb.retx_count(seq) > 0,
                    };
                    sb.on_ack(&info, now);
                    let lost = scan(sb, now);
                    for &seq in &lost {
                        sb.on_send(seq, now, true);
                        if !(seq % 300 == 37 && sb.retx_count(seq) == 1) {
                            arrivals.push_back((now + rtt, seq, now));
                        }
                    }
                    scans.push(lost);
                }
                _ => {
                    let (now, seq) = (next_send, sb.next_seq());
                    sb.on_send(seq, now, false);
                    received.push(false);
                    if seq % 100 != 37 {
                        arrivals.push_back((now + rtt, seq, now));
                    }
                    next_send = now + gap;
                }
            }
        }
        scans
    }

    #[test]
    fn timeout_rule_visits_a_constant_number_of_entries_per_ack() {
        // PCC's rate mode: RTO = 1.05 × RTT, a 250-packet window.
        let rtt = SimDuration::from_millis(30);
        let rto = SimDuration::from_nanos(rtt.as_nanos() * 105 / 100);
        let gap = SimDuration::from_nanos(rtt.as_nanos() / 250);
        let acks = 10_000;
        let mut sb = Scoreboard::new();
        let scans = rate_mode_ack_clock(&mut sb, acks, rtt, gap, |sb, now| {
            sb.detect_losses(now, rto)
        });
        let mut reference = Scoreboard::new();
        let expected = rate_mode_ack_clock(&mut reference, acks, rtt, gap, |sb, now| {
            sb.detect_losses_by_sweep(now, rto)
        });
        assert_eq!(scans, expected, "same losses as the full sweep");
        let declared = scans.iter().map(Vec::len).sum::<usize>();
        let distinct = scans.iter().flatten().collect::<BTreeSet<_>>().len();
        assert!(
            declared > distinct,
            "the run times out retransmissions, so it exercises the queue"
        );
        let per_ack = sb.timeout_visits as f64 / acks as f64;
        assert!(
            per_ack <= 3.0,
            "{per_ack:.2} visits per ACK; the sweep would pass over the ~250-packet window"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation: sent = acked + lost-pending + in-flight, under any
        /// interleaving of sends, acks, and loss scans.
        #[test]
        fn scoreboard_conservation(script in proptest::collection::vec(0u8..4, 1..400)) {
            let mut sb = Scoreboard::new();
            let mut now = SimTime::ZERO;
            let mut next_ackable = 0u64;
            for op in script {
                now += SimDuration::from_millis(1);
                match op {
                    0 => {
                        let seq = sb.next_seq();
                        sb.on_send(seq, now, false);
                    }
                    1 => {
                        // Ack the oldest unacked (simulating in-order receipt).
                        if let Some(seq) = sb.oldest_unacked() {
                            if seq < sb.next_seq() {
                                let info = AckInfo {
                                    acked_seq: seq,
                                    cum_ack: seq + 1,
                                    echo_sent_at: now,
                                    recv_at: now,
                                    probe_train: None,
                                    of_retx: false,
                                };
                                sb.on_ack(&info, now);
                                next_ackable = next_ackable.max(seq + 1);
                            }
                        }
                    }
                    2 => {
                        let _ = sb.detect_losses(now, SimDuration::from_millis(50));
                    }
                    _ => {
                        // Retransmit the first lost seq, if any.
                        let base = sb.cum_ack();
                        for seq in base..sb.next_seq() {
                            if sb.is_lost(seq) {
                                sb.on_send(seq, now, true);
                                break;
                            }
                        }
                    }
                }
                // Invariants that must hold after every operation:
                // in_flight is never negative (type-level) and never exceeds
                // the number of unacked sequences.
                let unacked = (sb.cum_ack()..sb.next_seq())
                    .filter(|&s| !sb.is_acked(s))
                    .count() as u64;
                prop_assert!(sb.in_flight() <= unacked);
                prop_assert!(sb.high_sacked() <= sb.next_seq());
            }
        }

        /// The cursor over originals and the queue of retransmissions
        /// declare exactly what a sweep of the whole window declares,
        /// under random sends, retransmissions, SACKs with holes,
        /// cumulative acks, RTO firings and scans whose RTO grows and
        /// shrinks from call to call.
        #[test]
        fn timeout_rule_matches_the_full_sweep(
            script in proptest::collection::vec((0u8..12, 0u64..64, 0u64..48), 1..600),
        ) {
            let mut fast = Scoreboard::new();
            let mut reference = Scoreboard::new();
            let mut now = SimTime::ZERO;
            for (op, a, b) in script {
                // Steps of 0–3 ms: some events share an instant.
                now += SimDuration::from_millis(b % 4);
                let window = fast.next_seq() - fast.cum_ack();
                match op {
                    0..=3 => {
                        let seq = fast.next_seq();
                        fast.on_send(seq, now, false);
                        reference.on_send(seq, now, false);
                    }
                    4 => {
                        // Retransmit one of the sequences marked lost, as
                        // the engine does.
                        let lost = fast.lost_seqs();
                        if !lost.is_empty() {
                            let seq = lost[a as usize % lost.len()];
                            fast.on_send(seq, now, true);
                            reference.on_send(seq, now, true);
                        }
                    }
                    5 if window > 0 => {
                        // Retransmit any unacked sequence, outstanding
                        // ones too: the earlier record goes stale.
                        let seq = fast.cum_ack() + a % window;
                        if !fast.is_acked(seq) {
                            fast.on_send(seq, now, true);
                            reference.on_send(seq, now, true);
                        }
                    }
                    6..=8 if window > 0 => {
                        // SACK any tracked sequence; a third of the ACKs
                        // also move the cumulative point, over holes too.
                        let seq = fast.cum_ack() + a % window;
                        let cum_ack = if b % 3 == 0 {
                            fast.cum_ack() + a % (window + 1)
                        } else {
                            fast.cum_ack()
                        };
                        let info = AckInfo {
                            acked_seq: seq,
                            cum_ack,
                            echo_sent_at: now,
                            recv_at: now,
                            probe_train: None,
                            of_retx: false,
                        };
                        fast.on_ack(&info, now);
                        reference.on_ack(&info, now);
                    }
                    11 if a == 0 => {
                        prop_assert_eq!(fast.mark_all_lost(), reference.mark_all_lost());
                    }
                    _ => {
                        let rto = SimDuration::from_millis(1 + b);
                        prop_assert_eq!(
                            fast.detect_losses(now, rto),
                            reference.detect_losses_by_sweep(now, rto)
                        );
                    }
                }
                prop_assert_eq!(fast.in_flight(), reference.in_flight());
                prop_assert_eq!(fast.total_losses(), reference.total_losses());
                prop_assert_eq!(fast.lost_seqs(), reference.lost_seqs());
            }
        }
    }
}
