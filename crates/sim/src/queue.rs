//! The cancellable, deterministically ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A handle to a scheduled event, used to cancel it before it fires.
///
/// A token names a slot of the queue's slab and the generation the slot
/// had when the event was scheduled. The slot's generation moves on when
/// its event fires or is cancelled, so cancelling a token whose event has
/// already fired (or was already cancelled) is a harmless no-op that
/// returns `false`, even after the slot has been reused by a later event
/// (until that one slot has been reused 2³² times).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken(u64);

impl EventToken {
    fn new(slot: u32, generation: u32) -> EventToken {
        EventToken(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Ties on time break by schedule order, which is what makes
        // simulations deterministic.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A future-event queue over an arbitrary event type `E`.
///
/// Events fire in `(time, schedule-order)` order. The queue tracks the
/// current simulation clock: [`EventQueue::pop`] advances it to the fired
/// event's timestamp, and scheduling in the past is a logic error.
///
/// Liveness is kept in a slab of generation-stamped slots, one per heap
/// entry: an entry is live while its generation equals its slot's.
/// Cancelling bumps the slot's generation, leaving the entry in the heap
/// as a tombstone; a slot is recycled only once its entry has left the
/// heap, so the slab is as large as the heap's high-water mark.
///
/// # Example
///
/// ```
/// use cg_sim::{EventQueue, SimDuration};
///
/// let mut q = EventQueue::new();
/// let tok = q.schedule_after(SimDuration::nanos(10), "cancel me");
/// q.schedule_after(SimDuration::nanos(20), "keep me");
/// assert!(q.cancel(tok));
/// let (_, e) = q.pop().unwrap();
/// assert_eq!(e, "keep me");
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Current generation of each slot. A slot whose entry is in the heap
    /// is live iff the entry carries this generation.
    generations: Vec<u32>,
    /// Slots with no entry in the heap, reused last-freed first.
    free: Vec<u32>,
    /// Live (scheduled, not yet fired or cancelled) events.
    live: usize,
    /// Cancelled entries still in the heap; lazily skipped on pop/peek.
    tombstones: usize,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
            tombstones: 0,
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Returns the current simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock: an event in the past
    /// indicates a causality bug in the caller.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        assert!(
            at >= self.now,
            "scheduled event at {at} is before current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.generations.len()).expect("event slab overflow");
            self.generations.push(0);
            slot
        });
        let generation = self.generations[slot as usize];
        self.heap.push(Entry {
            time: at,
            seq,
            slot,
            generation,
            event,
        });
        self.live += 1;
        EventToken::new(slot, generation)
    }

    /// Schedules `event` to fire `after` from the current clock.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now + after, event)
    }

    /// Schedules `event` to fire at the current instant (after all events
    /// already scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) -> EventToken {
        self.schedule_at(self.now, event)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        match self.generations.get_mut(token.slot()) {
            Some(generation) if *generation == token.generation() => {
                *generation = generation.wrapping_add(1);
                self.live -= 1;
                self.tombstones += 1;
                self.maybe_compact();
                true
            }
            _ => false,
        }
    }

    /// `true` if `entry` was cancelled while in the heap.
    fn is_tombstone(&self, entry: &Entry<E>) -> bool {
        self.generations[entry.slot as usize] != entry.generation
    }

    /// Rebuilds the heap without cancelled entries once they dominate it.
    ///
    /// Cancellation is lazy (tombstones are skipped on pop/peek), so a
    /// workload that cancels most of what it schedules — e.g. timers that
    /// are re-armed every segment — would otherwise grow the heap without
    /// bound even while `len()` stays small. When more than half the heap
    /// is tombstones (and the heap is big enough for the rebuild to be
    /// worth it), filter them out in one O(n) pass. The amortised cost per
    /// cancel stays O(log n): each rebuild removes at least half the heap,
    /// so an entry is touched by at most O(log n) rebuilds.
    ///
    /// Checked after every cancel and every pop (both shrink the live
    /// set), so the heap never exceeds `max(63, 2 × len())` entries.
    fn maybe_compact(&mut self) {
        const MIN_HEAP_FOR_COMPACTION: usize = 64;
        if self.heap.len() < MIN_HEAP_FOR_COMPACTION || self.tombstones * 2 <= self.heap.len() {
            return;
        }
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|e| {
            let live = self.generations[e.slot as usize] == e.generation;
            if !live {
                self.free.push(e.slot);
            }
            live
        });
        self.tombstones = 0;
        self.heap = BinaryHeap::from(entries);
    }

    /// Number of entries physically in the heap, including cancelled
    /// tombstones not yet removed. Exposed for tests asserting that lazy
    /// cancellation does not leak memory.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            self.free.push(entry.slot);
            if self.is_tombstone(&entry) {
                self.tombstones -= 1;
                continue;
            }
            // Retire the token: a later cancel of it must report `false`.
            let generation = &mut self.generations[entry.slot as usize];
            *generation = generation.wrapping_add(1);
            self.live -= 1;
            self.now = entry.time;
            self.maybe_compact();
            return Some((entry.time, entry.event));
        }
        None
    }

    /// Returns the timestamp of the next live event without firing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.is_tombstone(entry) {
                let slot = self.heap.pop().expect("peeked entry vanished").slot;
                self.free.push(slot);
                self.tombstones -= 1;
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Returns the number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Advances the clock directly to `at` without firing an event.
    ///
    /// Useful when an external driver wants to account for idle time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or if a pending event is scheduled
    /// before `at` (skipping events would break causality).
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot rewind the clock");
        if let Some(next) = self.peek_time() {
            assert!(
                next >= at,
                "advance_to({at}) would skip an event pending at {next}"
            );
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), "a");
        q.schedule_after(SimDuration::nanos(2), "b");
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), "a");
        q.pop();
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 0);
        // The queue stays usable and consistent afterwards.
        q.schedule_after(SimDuration::nanos(1), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_after_fire_with_other_pending_events() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), "a");
        q.pop();
        q.schedule_after(SimDuration::nanos(5), "b");
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn stale_token_cannot_cancel_the_event_reusing_its_slot() {
        let mut q = EventQueue::new();
        let old = q.schedule_after(SimDuration::nanos(1), "old");
        assert_eq!(q.pop().unwrap().1, "old");
        // The fired event's slot is free again; the next event takes it.
        let new = q.schedule_after(SimDuration::nanos(1), "new");
        assert_eq!(old.slot(), new.slot(), "slot was not reused");
        assert!(!q.cancel(old));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "new");
        assert!(!q.cancel(new));
    }

    #[test]
    fn stale_token_of_a_cancelled_event_cannot_cancel_its_slot_successor() {
        let mut q = EventQueue::new();
        let old = q.schedule_after(SimDuration::nanos(1), "old");
        q.schedule_after(SimDuration::nanos(5), "keep");
        assert!(q.cancel(old));
        // The tombstone holds the slot until a peek or pop skips it.
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        let new = q.schedule_after(SimDuration::nanos(2), "new");
        assert_eq!(old.slot(), new.slot(), "slot was not reused");
        assert!(!q.cancel(old));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "new");
        assert_eq!(q.pop().unwrap().1, "keep");
    }

    #[test]
    fn cancel_twice_reports_false() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), ());
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule_after(SimDuration::nanos(1), "x");
        q.schedule_after(SimDuration::nanos(9), "y");
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::nanos(10), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_nanos(100));
        assert_eq!(q.now(), SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "would skip an event")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::nanos(5), ());
        q.advance_to(SimTime::from_nanos(50));
    }

    #[test]
    fn schedule_now_fires_after_existing_same_instant_events() {
        let mut q = EventQueue::new();
        q.schedule_now("first");
        q.schedule_now("second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn schedule_now_after_pop_orders_behind_same_instant_events() {
        // An event handler that reacts to a pop by scheduling follow-up
        // work "now" must run after everything else already scheduled for
        // that same instant — this is what makes same-seed runs replayable.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // Handler for "a" schedules a reaction at the same instant.
        q.schedule_now("a-followup");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "a-followup");
    }

    #[test]
    fn massive_cancellation_does_not_grow_heap() {
        // Regression test for tombstone leakage: schedule/cancel 100k
        // timer-like events while keeping a few live ones, and assert the
        // physical heap stays bounded by a small multiple of the live set.
        let mut q = EventQueue::new();
        let mut live = Vec::new();
        for i in 0..10u64 {
            live.push(q.schedule_at(SimTime::from_nanos(1_000_000 + i), i));
        }
        for i in 0..100_000u64 {
            let tok = q.schedule_at(SimTime::from_nanos(500_000 + (i % 64)), i);
            assert!(q.cancel(tok));
            assert_eq!(q.len(), 10, "live count must be unaffected");
            assert!(
                q.heap_len() <= 256,
                "heap grew to {} entries after {} cancels",
                q.heap_len(),
                i + 1
            );
        }
        // All live events still fire, in order.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn popping_live_events_past_tombstones_keeps_heap_bounded() {
        // Cancel the late half, then pop the early half: the tombstones
        // sit behind every live event, so only the pop-side check can
        // reclaim them.
        let mut q = EventQueue::new();
        let late: Vec<_> = (0..200u64)
            .map(|i| q.schedule_at(SimTime::from_nanos(1_000 + i), i))
            .collect();
        for i in 0..200u64 {
            q.schedule_at(SimTime::from_nanos(i), i);
        }
        for tok in late {
            assert!(q.cancel(tok));
        }
        while q.pop().is_some() {
            assert!(
                q.heap_len() <= 2 * q.len() + 64,
                "heap {} entries for {} live",
                q.heap_len(),
                q.len()
            );
        }
    }

    #[test]
    fn compaction_preserves_ordering_and_cancellation_semantics() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        let mut drop_toks = Vec::new();
        for i in 0..200u64 {
            let tok = q.schedule_at(SimTime::from_nanos(i), i);
            if i % 3 == 0 {
                keep.push(i);
            } else {
                drop_toks.push(tok);
            }
        }
        for tok in drop_toks {
            assert!(q.cancel(tok));
            // Cancelling after compaction already removed the tombstone
            // must still report false on a second attempt.
            assert!(!q.cancel(tok));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, keep);
    }
}
