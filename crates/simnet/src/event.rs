//! The discrete-event queue.
//!
//! Every scheduled event gets the next value of one monotonically
//! increasing sequence number, and events pop in `(time, sequence)` order:
//! two events scheduled for the same instant fire in scheduling order,
//! which makes every run with the same seed bit-identical.
//!
//! Most pending events are packets propagating along a link, and a link
//! delivers them in the order it sent them. So each link has a *wire*, a
//! FIFO of `(time, sequence, packet)`, and [`EventQueue::schedule_arrival`]
//! appends to it. The binary heap holds the other events plus one entry
//! per non-empty wire, keyed by that wire's front; popping a wire's packet
//! re-keys its entry in place. Because each wire is sorted by the same
//! `(time, sequence)` key, the merged pop order is the one a single heap
//! of every event would give.
//!
//! **Fallback rule.** An arrival earlier than its wire's last one (jitter
//! with reordering, or a schedule step that shortened the link's delay)
//! would break the wire's order, so it takes its own heap entry instead;
//! its key is unchanged, and so is the pop order.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

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

/// What a heap entry stands for: one pending event, or the head of a
/// link's wire (the wire's front packet carries the entry's key).
enum Slot {
    Event(Event),
    Wire(LinkId),
}

struct Entry {
    at: SimTime,
    seq: u64,
    slot: Slot,
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

/// A packet propagating along a wire, keyed like a heap entry.
struct InFlight {
    at: SimTime,
    seq: u64,
    packet: Packet,
}

/// Deterministic earliest-first event queue.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Per-link delay lines, indexed by `LinkId`: each is sorted by
    /// `(at, seq)` and, while non-empty, has exactly one heap entry keyed
    /// by its front.
    wires: Vec<VecDeque<InFlight>>,
    pending: usize,
    next_seq: u64,
    scheduled: u64,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// Create an empty queue whose heap is pre-sized for `capacity`
    /// entries (the simulation derives a hint from its topology). Packets
    /// riding a wire do not take heap entries.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            wires: Vec::new(),
            pending: 0,
            next_seq: 0,
            scheduled: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.pending += 1;
        seq
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq();
        self.heap.push(Entry {
            at,
            seq,
            slot: Slot::Event(event),
        });
    }

    /// Schedule `packet` to arrive at absolute time `at` after propagating
    /// along `link`; it pops as [`Event::Arrive`], in the same order
    /// [`EventQueue::schedule`] would give it. An arrival no earlier than
    /// the wire's last one joins the wire; an earlier one (jitter with
    /// reordering, a schedule step that shortened the delay) falls back
    /// to its own heap entry.
    pub fn schedule_arrival(&mut self, link: LinkId, at: SimTime, packet: Packet) {
        let seq = self.next_seq();
        let i = link.index();
        if i >= self.wires.len() {
            self.wires.resize_with(i + 1, VecDeque::new);
        }
        let wire = &mut self.wires[i];
        if wire.back().is_some_and(|tail| at < tail.at) {
            self.heap.push(Entry {
                at,
                seq,
                slot: Slot::Event(Event::Arrive { packet }),
            });
            return;
        }
        if wire.is_empty() {
            self.heap.push(Entry {
                at,
                seq,
                slot: Slot::Wire(link),
            });
        }
        wire.push_back(InFlight { at, seq, packet });
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let mut head = self.heap.peek_mut()?;
        self.pending -= 1;
        let Slot::Wire(link) = head.slot else {
            let Entry { at, slot, .. } = PeekMut::pop(head);
            let Slot::Event(event) = slot else {
                unreachable!("matched as an event above")
            };
            return Some((at, event));
        };
        let wire = &mut self.wires[link.index()];
        let front = wire
            .pop_front()
            .expect("a wire's heap entry implies a packet");
        match wire.front() {
            // Re-key in place; dropping the guard sifts the entry down.
            Some(next) => {
                head.at = next.at;
                head.seq = next.seq;
            }
            None => {
                PeekMut::pop(head);
            }
        }
        Some((
            front.at,
            Event::Arrive {
                packet: front.packet,
            },
        ))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events, wire arrivals included.
    pub fn len(&self) -> usize {
        self.pending
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

    fn arrival(id: u32) -> Packet {
        Packet::data(FlowId(id), u64::from(id), 1500, SimTime::ZERO, false)
    }

    #[test]
    fn in_order_arrivals_share_one_heap_entry() {
        let mut q = EventQueue::new();
        let wire = LinkId(2);
        for i in 0..100 {
            q.schedule_arrival(wire, t(10 + u64::from(i)), arrival(i));
        }
        assert_eq!(q.heap.len(), 1, "one entry for the whole wire");
        assert_eq!(q.len(), 100);
        // Each arrival earlier than the wire's tail takes its own entry.
        for i in 0..7 {
            q.schedule_arrival(wire, t(50 + u64::from(i)), arrival(100 + i));
        }
        assert_eq!(q.heap.len(), 1 + 7);
        assert_eq!(q.len(), 107);
        let mut times = Vec::new();
        while let Some((at, e)) = q.pop() {
            assert!(matches!(e, Event::Arrive { .. }));
            times.push(at);
        }
        assert!(times.is_sorted());
        assert_eq!(times.len(), 107);
        assert!(q.heap.is_empty() && q.is_empty());
    }

    #[test]
    fn arrivals_and_events_at_one_instant_pop_in_scheduling_order() {
        let mut q = EventQueue::new();
        q.schedule_arrival(LinkId(0), t(5), arrival(0));
        q.schedule(t(5), Event::Sample);
        q.schedule_arrival(LinkId(1), t(5), arrival(1));
        q.schedule_arrival(LinkId(0), t(5), arrival(2));
        let order: Vec<Option<u32>> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrive { packet } => Some(packet.flow.0),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![Some(0), None, Some(1), Some(2)]);
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
    use crate::time::SimDuration;
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

        /// Any interleaving of `schedule`, `schedule_arrival` on a few
        /// wires and `pop` matches a reference that sorts every pending
        /// event by `(at, seq)`, in pop order, `len` and `peek_time`.
        /// Times are drawn near the last popped instant, so arrivals land
        /// both behind and ahead of their wire's tail, with many ties.
        #[test]
        fn wires_and_heap_merge_into_one_order(
            ops in proptest::collection::vec((0u8..4, 0u32..3, 0u64..8), 1..300),
        ) {
            let mut q = EventQueue::new();
            // Reference: (at, seq, id) of every pending event.
            let mut reference: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut now = SimTime::ZERO;
            for (seq, &(kind, wire, dt)) in ops.iter().enumerate() {
                let id = seq as u32;
                let at = now + SimDuration::from_millis(dt);
                match kind {
                    0 => {
                        q.schedule(at, Event::LinkUpdate { link: LinkId(id), step: 0 });
                        reference.push((at, seq as u64, id));
                    }
                    1 | 2 => {
                        let packet = Packet::data(FlowId(id), 0, 1500, SimTime::ZERO, false);
                        q.schedule_arrival(LinkId(wire), at, packet);
                        reference.push((at, seq as u64, id));
                    }
                    _ => {
                        reference.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
                        let want = (!reference.is_empty()).then(|| reference.remove(0));
                        let got = q.pop().map(|(at, e)| match e {
                            Event::LinkUpdate { link, .. } => (at, link.0),
                            Event::Arrive { packet } => (at, packet.flow.0),
                            _ => unreachable!(),
                        });
                        prop_assert_eq!(got, want.map(|(at, _, id)| (at, id)));
                        if let Some((at, ..)) = want {
                            now = at;
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
                prop_assert_eq!(q.peek_time(), reference.iter().map(|&(at, ..)| at).min());
            }
            reference.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
            let rest: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::LinkUpdate { link, .. } => link.0,
                    Event::Arrive { packet } => packet.flow.0,
                    _ => unreachable!(),
                })
                .collect();
            prop_assert_eq!(rest, reference.iter().map(|&(_, _, id)| id).collect::<Vec<_>>());
        }
    }
}
