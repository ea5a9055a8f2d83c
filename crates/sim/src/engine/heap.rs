//! The original binary-heap event queue, kept as the reference model.
//!
//! [`HeapEventQueue`] is the queue the engine shipped with before the timer
//! wheel landed: a `BinaryHeap` ordered by `(time, seq)` with cancellations
//! handled by lazy deletion against a live-id set. It is retained for two
//! reasons:
//!
//! * it is the *executable specification* of the delivery contract — the
//!   differential test suite drives it in lockstep with the wheel-based
//!   [`EventQueue`](crate::engine::EventQueue) and asserts bit-identical
//!   behaviour;
//! * it is the baseline in the `event_core` micro-benchmarks, so the wheel's
//!   advantage stays measured rather than assumed.
//!
//! Unlike the original implementation, cancelled entries no longer accumulate
//! without bound: when dead (cancelled-but-unreaped) entries outnumber live
//! ones the heap is compacted in O(n), keeping memory O(live) under
//! cancel-heavy rearm workloads such as NIC deadline coalescing.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::SimTime;

/// Multiply-shift hasher for [`HeapEventId`] sets. Event ids are sequential
/// `u64`s, so full SipHash is wasted work on the schedule/pop hot path; a
/// single Fibonacci multiply disperses them well enough for a `HashSet`.
#[derive(Default)]
pub struct EventIdHasher(u64);

impl Hasher for EventIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("EventIdHasher only hashes u64 event ids");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type EventIdSet = HashSet<HeapEventId, BuildHasherDefault<EventIdHasher>>;

/// Identifier of an event scheduled into a [`HeapEventQueue`].
///
/// Identifiers are unique within one queue instance and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeapEventId(u64);

impl HeapEventId {
    /// The raw identifier value (mostly useful for logging).
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// Internal heap entry. Ordered by `(time, inserted, seq)`, where `inserted`
/// is the simulated instant the event was scheduled at, so that events
/// scheduled for the same instant are delivered in FIFO order — which makes
/// simulations deterministic. Since `now` never decreases, `(inserted, seq)`
/// orders exactly as `seq` alone; the wheel relies on that and keys by
/// `(time, seq)`, and the differential suite checks the two agree.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    inserted: SimTime,
    seq: u64,
    id: HeapEventId,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.inserted == other.inserted && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to obtain earliest-first ordering.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.inserted.cmp(&self.inserted))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference binary-heap event queue.
///
/// Events are delivered in non-decreasing timestamp order; ties are broken by
/// scheduling order (FIFO). Cancellation is supported through lazy deletion,
/// which keeps both `schedule` and `pop` at `O(log n)`; a compaction pass
/// keeps the heap O(live) when cancellations dominate.
///
/// # Examples
///
/// ```
/// use apc_sim::engine::HeapEventQueue;
/// use apc_sim::time::SimTime;
///
/// let mut queue = HeapEventQueue::new();
/// queue.schedule(SimTime::from_nanos(20), "b");
/// queue.schedule(SimTime::from_nanos(10), "a");
/// let id = queue.schedule(SimTime::from_nanos(30), "cancelled");
/// queue.cancel(id);
///
/// assert_eq!(queue.pop(), Some((SimTime::from_nanos(10), "a")));
/// assert_eq!(queue.pop(), Some((SimTime::from_nanos(20), "b")));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Ids of events that are scheduled, not yet delivered and not cancelled.
    /// Tracking the live set makes [`HeapEventQueue::cancel`] O(1) instead of
    /// a linear scan of the heap; a heap entry whose id is no longer live is
    /// a cancelled event awaiting lazy removal.
    live: EventIdSet,
    next_seq: u64,
    /// Timestamp of the most recently delivered event; used to detect
    /// causality violations (scheduling into the past).
    now: SimTime,
    delivered: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty event queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            live: EventIdSet::default(),
            next_seq: 0,
            now: SimTime::ZERO,
            delivered: 0,
        }
    }

    /// The timestamp of the most recently delivered event (the current
    /// simulated time from the queue's perspective).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events currently pending (cancelled-but-not-yet-reaped
    /// events are excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no live events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries physically held by the heap, including cancelled
    /// entries awaiting lazy removal. Exposed so tests can pin the O(live)
    /// compaction guarantee.
    #[must_use]
    pub fn backing_len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `payload` for delivery at time `at` and returns a handle
    /// that can be used to cancel it.
    ///
    /// Scheduling an event in the past (before the last delivered event) is a
    /// causality violation; the event is clamped to the current time so that
    /// it is delivered next, which mirrors how hardware would observe a
    /// "should already have happened" condition immediately.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> HeapEventId {
        let time = if at < self.now { self.now } else { at };
        let id = HeapEventId(self.next_seq);
        let entry = Entry {
            time,
            inserted: self.now,
            seq: self.next_seq,
            id,
            payload,
        };
        self.next_seq += 1;
        self.heap.push(entry);
        self.live.insert(id);
        id
    }

    /// Cancels a previously scheduled event in O(1) amortized.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already been delivered or cancelled. The heap entry itself is removed
    /// lazily when it reaches the top of the heap, or eagerly by a compaction
    /// pass once dead entries outnumber live ones.
    pub fn cancel(&mut self, id: HeapEventId) -> bool {
        let cancelled = self.live.remove(&id);
        if cancelled && self.heap.len() > 2 * self.live.len() {
            self.compact();
        }
        cancelled
    }

    /// The timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.reap_cancelled();
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest live event together with its
    /// timestamp, advancing the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let entry = self.heap.pop()?;
            if !self.live.remove(&entry.id) {
                // Cancelled while pending; drop it.
                continue;
            }
            self.now = entry.time;
            self.delivered += 1;
            return Some((entry.time, entry.payload));
        }
    }

    /// Drops cancelled entries sitting at the top of the heap.
    fn reap_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.live.contains(&top.id) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Rebuilds the heap from its live entries only. O(n), amortized O(1) per
    /// cancel because it only runs once dead entries outnumber live ones.
    /// Delivery order is unaffected: order is a function of `(time, seq)`,
    /// not of the heap's internal layout.
    fn compact(&mut self) {
        let live = &self.live;
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|e| live.contains(&e.id));
        self.heap = BinaryHeap::from(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn delivers_in_time_order() {
        let mut q = HeapEventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = HeapEventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = HeapEventQueue::new();
        let a = q.schedule(SimTime::from_nanos(10), "a");
        let b = q.schedule(SimTime::from_nanos(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert!(!q.cancel(b), "cannot cancel a delivered event");
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = HeapEventQueue::new();
        q.schedule(SimTime::from_micros(10), "first");
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(10));
        q.schedule(SimTime::from_micros(1), "late");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(10));
    }

    #[test]
    fn ties_inserted_at_different_instants_keep_schedule_order() {
        let mut q = HeapEventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule(t, "a");
        q.schedule(SimTime::from_nanos(50), "step");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50), "step")));
        q.schedule(t, "b");
        q.schedule(SimTime::from_nanos(10), "clamped");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50), "clamped")));
        assert_eq!(q.pop(), Some((t, "a")));
        assert_eq!(q.pop(), Some((t, "b")));
    }

    #[test]
    fn compaction_preserves_tie_order() {
        let mut q = HeapEventQueue::new();
        let t = SimTime::from_nanos(7);
        let ids: Vec<_> = (0..64u32).map(|i| q.schedule(t, i)).collect();
        // Cancel three of every four: dead entries outnumber live ones
        // twice over, so at least one compaction pass runs.
        for (i, id) in ids.iter().enumerate() {
            if i % 4 != 0 {
                assert!(q.cancel(*id));
            }
        }
        assert!(q.backing_len() < ids.len(), "no compaction ran");
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..64).step_by(4).collect::<Vec<_>>());
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = HeapEventQueue::new();
        let a = q.schedule(SimTime::from_nanos(5), "a");
        q.schedule(SimTime::from_nanos(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    fn tracks_delivered_count_and_now() {
        let mut q = HeapEventQueue::new();
        let t0 = SimTime::ZERO + SimDuration::from_micros(1);
        q.schedule(t0, ());
        q.schedule(t0 + SimDuration::from_micros(1), ());
        while q.pop().is_some() {}
        assert_eq!(q.delivered(), 2);
        assert_eq!(q.now(), SimTime::from_micros(2));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_heavy_rearm_keeps_backing_storage_bounded() {
        // The NIC-coalescing pattern: one live deadline, constantly
        // cancelled and re-armed. Before the compaction fix the heap grew by
        // one dead entry per rearm.
        let mut q = HeapEventQueue::new();
        let mut pending = q.schedule(SimTime::from_nanos(100), 0u32);
        for i in 1..10_000u32 {
            assert!(q.cancel(pending));
            pending = q.schedule(SimTime::from_nanos(100 + u64::from(i)), i);
            assert!(q.backing_len() <= 2 * q.len() + 1, "heap grew unbounded");
        }
        assert_eq!(q.len(), 1);
        let (_, last) = q.pop().unwrap();
        assert_eq!(last, 9_999);
    }
}
