//! The discrete-event core: virtual time, the event key and the queued
//! event.

use crate::node::{NodeId, TimerKey};
use bytes::Bytes;
use std::cmp::Ordering;

/// Virtual simulation time in microseconds.
pub type SimTime = u64;

/// One microsecond.
pub const MICRO: SimTime = 1;
/// One millisecond in [`SimTime`] units.
pub const MILLI: SimTime = 1_000;
/// One second in [`SimTime`] units.
pub const SECOND: SimTime = 1_000_000;

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// Node start-up hook.
    Start(NodeId),
    /// A timer armed by a node. `gen` invalidates superseded/cancelled
    /// timers lazily.
    Timer {
        /// Owning node.
        node: NodeId,
        /// App-chosen timer identity.
        key: TimerKey,
        /// Arming generation; stale generations are dropped on fire.
        gen: u64,
    },
    /// Radio delivery of a frame to one receiver.
    Deliver {
        /// Transmitting node (or a synthetic adversary ID).
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Frame payload.
        payload: Bytes,
    },
}

/// Total event order, independent of how nodes are split into regions.
///
/// `origin` is the node whose activity created the event (the
/// transmitter of a delivery, the owner of a timer, the node the caller
/// attributed the event to), `ctr` its per-origin creation counter, and
/// `target` the node that consumes the event. Each origin hands out every
/// counter value once, so keys are unique; the derived lexicographic
/// `Ord` gives `(time, seq)` ordering with a seq that no global scheduler
/// needs to hand out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Fire time.
    pub at: SimTime,
    /// Node the event is attributed to.
    pub origin: NodeId,
    /// The origin's creation counter.
    pub ctr: u64,
    /// Node that consumes the event.
    pub target: NodeId,
}

/// An event queued in a region heap. Ordered *reversed* by key, so a
/// `BinaryHeap<Event>` (a max-heap) pops the earliest key first.
#[derive(Debug)]
pub struct Event {
    /// Order key.
    pub key: EventKey,
    /// Payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn start(at: SimTime, origin: NodeId, ctr: u64) -> Event {
        Event {
            key: EventKey {
                at,
                origin,
                ctr,
                target: origin,
            },
            kind: EventKind::Start(origin),
        }
    }

    fn pop_all(heap: &mut BinaryHeap<Event>) -> Vec<(SimTime, NodeId, u64)> {
        std::iter::from_fn(|| heap.pop().map(|e| (e.key.at, e.key.origin, e.key.ctr))).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut heap = BinaryHeap::new();
        heap.push(start(30, 3, 0));
        heap.push(start(10, 1, 0));
        heap.push(start(20, 2, 0));
        let times: Vec<SimTime> = pop_all(&mut heap).iter().map(|e| e.0).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        // At equal times, events pop by origin, then in the order the
        // origin created them (its counter) — not in heap-insertion order.
        let mut heap = BinaryHeap::new();
        for (origin, ctr) in [(2, 0), (1, 5), (1, 4), (2, 1)] {
            heap.push(start(10, origin, ctr));
        }
        assert_eq!(
            pop_all(&mut heap),
            vec![(10, 1, 4), (10, 1, 5), (10, 2, 0), (10, 2, 1)]
        );
    }
}
