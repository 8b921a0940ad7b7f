//! The discrete-event queue.
//!
//! A binary heap of `(time, sequence)`-ordered entries. The monotonically
//! increasing sequence number breaks ties deterministically: two events
//! scheduled for the same instant fire in scheduling order, which makes every
//! run with the same seed bit-identical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::ids::{FlowId, LinkId, Side};
use crate::packet::Packet;
use crate::time::SimTime;

/// Everything that can happen in the simulator.
#[derive(Clone, Debug)]
#[expect(missing_docs, reason = "variant fields are self-describing")]
pub enum Event {
    /// A link finished serializing the packet at the head of its queue.
    TxComplete { link: LinkId },
    /// A packet finished propagating and arrives at the next hop (or the
    /// endpoint, if it was the last hop).
    Arrive { packet: Packet },
    /// An endpoint timer fires. `token` is opaque to the simulator; `gen`
    /// is the flow slot's generation when the timer was armed — a timer
    /// whose generation no longer matches (the slot was recycled under
    /// churn) is discarded instead of firing into the new tenant.
    Timer {
        flow: FlowId,
        side: Side,
        token: u64,
        gen: u32,
    },
    /// A flow's sender should start transmitting.
    FlowStart { flow: FlowId },
    /// The churn driver's next flow arrival is due. One event admits every
    /// arrival batched at the same timestamp, then re-arms for the next
    /// distinct arrival instant.
    ChurnArrival,
    /// Apply step `step` of a link's time-varying parameter schedule.
    LinkUpdate { link: LinkId, step: usize },
    /// Apply entry `index` of the fault plane's compiled schedule.
    Fault { index: usize },
    /// Periodic statistics sampling tick.
    Sample,
}

struct Entry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first ordering.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic earliest-first event queue.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    scheduled: u64,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Create an empty queue pre-sized for `capacity` pending events (the
    /// simulation derives a hint from its topology so the heap never
    /// reallocates mid-run).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            scheduled: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), Event::Sample);
        q.schedule(t(10), Event::Sample);
        q.schedule(t(20), Event::Sample);
        let times: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(at, _)| at).collect();
        assert_eq!(times, vec![t(10), t(20), t(30)]);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.schedule(
                t(1),
                Event::LinkUpdate {
                    link: LinkId(i),
                    step: 0,
                },
            );
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::LinkUpdate { link, .. } => link.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(t(5), Event::Sample);
        q.schedule(t(2), Event::Sample);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.total_scheduled(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in non-decreasing time order, and same-time
        /// events pop in scheduling order.
        #[test]
        fn ordering_invariant(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &ms) in times.iter().enumerate() {
                q.schedule(SimTime::from_millis(ms), Event::LinkUpdate {
                    link: LinkId(i as u32), step: 0,
                });
            }
            let mut last: Option<(SimTime, u32)> = None;
            while let Some((at, e)) = q.pop() {
                let id = match e { Event::LinkUpdate { link, .. } => link.0, _ => unreachable!() };
                if let Some((lt, lid)) = last {
                    prop_assert!(at >= lt);
                    if at == lt {
                        prop_assert!(id > lid, "same-time events must pop in schedule order");
                    }
                }
                last = Some((at, id));
            }
        }
    }
}
