//! The cancellable, deterministically ordered event queue.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
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

/// The head of a pending chain: its next virtual link's `(time, seq)`
/// key, and the chain. Reversed, so the max-heap pops the earliest.
type ChainHead = Reverse<(SimTime, u64, u32)>;

/// An event scheduled behind a chain of virtual links (see
/// [`EventQueue::schedule_chain`]). It holds its slot from the moment it
/// is scheduled; the event enters the heap when the last link passes.
#[derive(Debug)]
struct Chain<E> {
    /// The virtual links, in time order; `links[passed]` is the head.
    links: Vec<SimTime>,
    passed: usize,
    /// Cut by [`EventQueue::cut_chain`]: the head link is the event.
    cut: bool,
    at: SimTime,
    event: Option<E>,
    slot: u32,
    generation: u32,
}

/// Marks a slot that no pending chain holds.
const NO_CHAIN: u32 = u32::MAX;

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
/// An event can also be scheduled behind a *chain* of virtual links
/// ([`EventQueue::schedule_chain`]): the links take part in the ordering
/// exactly as a run of real events would, each scheduling the next when
/// it fires, but they are never returned. A queue with no pending chain
/// pays one emptiness check per pop and peek for the feature.
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
    /// Pending chains, reused through `chain_free`.
    chains: Vec<Chain<E>>,
    chain_free: Vec<u32>,
    /// Next virtual link of every pending chain (cancelled chains
    /// included until their head surfaces).
    chain_heads: BinaryHeap<ChainHead>,
    /// For each slot: the pending chain holding it, or [`NO_CHAIN`].
    slot_chain: Vec<u32>,
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
            chains: Vec::new(),
            chain_free: Vec::new(),
            chain_heads: BinaryHeap::new(),
            slot_chain: Vec::new(),
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
        let (slot, generation) = self.take_slot();
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

    /// A free slot and its current generation.
    fn take_slot(&mut self) -> (u32, u32) {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.generations.len()).expect("event slab overflow");
            self.generations.push(0);
            self.slot_chain.push(NO_CHAIN);
            slot
        });
        (slot, self.generations[slot as usize])
    }

    /// Schedules `event` to fire at `at` behind a chain of virtual links
    /// at the strictly increasing times `links`, all in `[now, at)`.
    ///
    /// The result is ordered exactly as if the first link had been
    /// scheduled now, with [`EventQueue::schedule_at`], and each link, on
    /// firing, had scheduled the next one and the last link `event`: a
    /// link takes its place among same-instant events by the order in
    /// which it was (virtually) scheduled, and so does `event`. Links are
    /// never returned; they pass when a pop or peek looks past them.
    ///
    /// The token cancels the whole chain, links and event alike, and
    /// [`EventQueue::chain_links_passed`] reports how far it got.
    ///
    /// # Panics
    ///
    /// Panics if the links are not strictly increasing within
    /// `[now, at)`.
    pub fn schedule_chain(&mut self, links: &[SimTime], at: SimTime, event: E) -> EventToken {
        let Some(&first) = links.first() else {
            return self.schedule_at(at, event);
        };
        assert!(
            first >= self.now
                && links.windows(2).all(|w| w[0] < w[1])
                && links.last().is_some_and(|&l| l < at),
            "chain links {links:?} must increase strictly within [{}, {at})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, generation) = self.take_slot();
        let chain = match self.chain_free.pop() {
            Some(c) => {
                let ch = &mut self.chains[c as usize];
                ch.links.clear();
                ch.links.extend_from_slice(links);
                ch.passed = 0;
                ch.cut = false;
                ch.at = at;
                ch.event = Some(event);
                ch.slot = slot;
                ch.generation = generation;
                c
            }
            None => {
                self.chains.push(Chain {
                    links: links.to_vec(),
                    passed: 0,
                    cut: false,
                    at,
                    event: Some(event),
                    slot,
                    generation,
                });
                u32::try_from(self.chains.len() - 1).expect("chain slab overflow")
            }
        };
        self.slot_chain[slot as usize] = chain;
        self.chain_heads.push(Reverse((first, seq, chain)));
        self.live += 1;
        EventToken::new(slot, generation)
    }

    /// How many virtual links of the chain behind `token` have passed, or
    /// `None` if `token` names no pending chain (a plain event, a chain
    /// whose event already entered the heap, or a cancelled one).
    pub fn chain_links_passed(&self, token: EventToken) -> Option<usize> {
        self.pending_chain(token).map(|c| self.chains[c].passed)
    }

    /// Ends the chain behind `token` at its next link: the event takes
    /// that link's time and its place among same-instant events, as if
    /// the link had been the event all along. Returns the links passed
    /// before it, or `None` (changing nothing) if `token` names no
    /// pending chain.
    pub fn cut_chain(&mut self, token: EventToken) -> Option<usize> {
        let c = self.pending_chain(token)?;
        let chain = &mut self.chains[c];
        chain.cut = true;
        chain.at = chain.links[chain.passed];
        Some(chain.passed)
    }

    /// The pending, uncut chain holding `token`'s slot.
    fn pending_chain(&self, token: EventToken) -> Option<usize> {
        let slot = token.slot();
        match self.slot_chain.get(slot) {
            Some(&c)
                if c != NO_CHAIN
                    && self.generations[slot] == token.generation()
                    && !self.chains[c as usize].cut =>
            {
                Some(c as usize)
            }
            _ => None,
        }
    }

    /// Passes every chain link ordered before the first live heap entry,
    /// moving a chain's event into the heap when its last link passes,
    /// and drops cancelled chains whose head surfaces.
    fn pass_chain_links(&mut self) {
        // Passing links neither cancels nor pops, so the top stays live.
        self.skip_tombstones();
        while let Some(&Reverse((time, seq, chain))) = self.chain_heads.peek() {
            if let Some(top) = self.heap.peek() {
                if (top.time, top.seq) < (time, seq) {
                    return;
                }
            }
            let c = chain as usize;
            let (slot, generation) = (self.chains[c].slot, self.chains[c].generation);
            if self.generations[slot as usize] != generation {
                // Cancelled: release the chain and its slot.
                self.chain_heads.pop();
                self.chains[c].event = None;
                self.chain_free.push(c as u32);
                self.slot_chain[slot as usize] = NO_CHAIN;
                self.free.push(slot);
                continue;
            }
            let mut head = self.chain_heads.peek_mut().expect("peeked chain head");
            let chain = &mut self.chains[c];
            let seq = if chain.cut {
                // The head link is the event itself, already in place.
                seq
            } else {
                let next_seq = self.next_seq;
                self.next_seq += 1;
                chain.passed += 1;
                if let Some(&next) = chain.links.get(chain.passed) {
                    head.0 = (next, next_seq, c as u32);
                    continue; // dropping `head` restores the heap order
                }
                next_seq
            };
            PeekMut::pop(head);
            let event = chain.event.take().expect("pending chain holds its event");
            self.heap.push(Entry {
                time: chain.at,
                seq,
                slot,
                generation,
                event,
            });
            self.slot_chain[slot as usize] = NO_CHAIN;
            self.chain_free.push(c as u32);
        }
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
                // A pending chain's event is not in the heap yet: its
                // chain is dropped when its head surfaces.
                if self.slot_chain[token.slot()] == NO_CHAIN {
                    self.tombstones += 1;
                    self.maybe_compact();
                }
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
        if !self.chain_heads.is_empty() {
            self.pass_chain_links();
        }
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
        if !self.chain_heads.is_empty() {
            self.pass_chain_links();
        }
        self.skip_tombstones();
        self.heap.peek().map(|entry| entry.time)
    }

    /// Drops cancelled entries from the top of the heap.
    fn skip_tombstones(&mut self) {
        while let Some(entry) = self.heap.peek() {
            if !self.is_tombstone(entry) {
                return;
            }
            let slot = self.heap.pop().expect("peeked entry vanished").slot;
            self.free.push(slot);
            self.tombstones -= 1;
        }
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

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn plain_schedule_order_is_unchanged_by_a_pending_chain() {
        // With and without a chain in flight, plain events pop in (time,
        // schedule order), same-instant ties included.
        let plain = |q: &mut EventQueue<&'static str>| {
            q.schedule_at(t(20), "b1");
            q.schedule_at(t(10), "a");
            q.schedule_at(t(20), "b2");
            q.schedule_at(t(5), "first");
            q.schedule_at(t(20), "b3");
        };
        let mut q = EventQueue::new();
        plain(&mut q);
        let alone: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(alone, ["first", "a", "b1", "b2", "b3"]);

        let mut q = EventQueue::new();
        plain(&mut q);
        q.schedule_chain(&[t(7), t(20)], t(40), "chained");
        let with_chain: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(with_chain, ["first", "a", "b1", "b2", "b3", "chained"]);
    }

    #[test]
    fn chain_event_is_ordered_as_if_scheduled_by_its_last_link() {
        // Links at 10 and 20, event at 30. `c` (at 20) was scheduled
        // before link 2 was virtually scheduled (at link 1's firing), so
        // it fires first, and what its handler schedules for 30 precedes
        // the chained event, which link 2 schedules when it fires after
        // `c`.
        let mut q = EventQueue::new();
        let tok = q.schedule_chain(&[t(10), t(20)], t(30), "chained");
        q.schedule_at(t(20), "c");
        assert_eq!(q.chain_links_passed(tok), Some(0));
        assert_eq!(q.pop(), Some((t(20), "c")));
        assert_eq!(q.chain_links_passed(tok), Some(1));
        q.schedule_at(t(30), "from-c");
        assert_eq!(q.pop(), Some((t(30), "from-c")));
        assert_eq!(q.chain_links_passed(tok), None, "event is in the heap");
        assert_eq!(q.pop(), Some((t(30), "chained")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn events_scheduled_after_a_link_fires_follow_its_successor() {
        // `p` (at 10) was scheduled after link 1, so link 1 fires first
        // and schedules link 2 before `p`'s handler schedules `y` (at 20)
        // and `z` (at 30): link 2 fires before `y`, and the chained event
        // it schedules follows `z`, which was scheduled earlier.
        let mut q = EventQueue::new();
        let tok = q.schedule_chain(&[t(10), t(20)], t(30), "chained");
        q.schedule_at(t(10), "p");
        assert_eq!(q.pop(), Some((t(10), "p")));
        assert_eq!(q.chain_links_passed(tok), Some(1));
        q.schedule_at(t(20), "y");
        q.schedule_at(t(30), "z");
        assert_eq!(q.pop(), Some((t(20), "y")));
        assert_eq!(q.chain_links_passed(tok), None);
        assert_eq!(q.pop(), Some((t(30), "z")));
        assert_eq!(q.pop(), Some((t(30), "chained")));
    }

    #[test]
    fn cancelling_a_chain_drops_its_links_and_event() {
        let mut q = EventQueue::new();
        let tok = q.schedule_chain(&[t(10), t(20), t(30)], t(40), "chained");
        q.schedule_at(t(15), "mid");
        q.schedule_at(t(50), "late");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(15), "mid")));
        assert_eq!(q.chain_links_passed(tok), Some(1));
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
        assert_eq!(q.chain_links_passed(tok), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(50)));
        // The chain's slot is free again and a stale token cannot touch
        // its successor.
        let next = q.schedule_at(t(60), "next");
        assert!(!q.cancel(tok));
        assert_eq!(q.pop(), Some((t(50), "late")));
        assert!(q.cancel(next));
        assert!(q.pop().is_none());
        assert_eq!(q.heap_len(), 0);
    }

    #[test]
    fn cancelling_a_chain_after_its_event_entered_the_heap() {
        let mut q = EventQueue::new();
        let tok = q.schedule_chain(&[t(10)], t(30), "chained");
        q.schedule_at(t(20), "x");
        assert_eq!(q.pop(), Some((t(20), "x")));
        assert_eq!(q.chain_links_passed(tok), None);
        assert!(q.cancel(tok));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_cut_chain_fires_at_its_next_link_in_that_links_place() {
        // Links at 10 and 20, event at 30; `b` (at 20) is scheduled after
        // the chain, so before link 2 is; cutting after link 1 makes the
        // event take link 2's time and place: after `b`, before `c`,
        // which is scheduled after link 1 fired.
        let mut q = EventQueue::new();
        let tok = q.schedule_chain(&[t(10), t(20)], t(30), "chained");
        q.schedule_at(t(20), "b");
        q.schedule_at(t(15), "a");
        assert_eq!(q.pop(), Some((t(15), "a")));
        q.schedule_at(t(20), "c");
        assert_eq!(q.cut_chain(tok), Some(1));
        assert_eq!(q.cut_chain(tok), None);
        assert_eq!(q.chain_links_passed(tok), None);
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [(t(20), "b"), (t(20), "chained"), (t(20), "c")]);
        assert!(!q.cancel(tok));
    }

    #[test]
    fn a_cut_chain_can_still_be_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule_chain(&[t(10), t(20)], t(30), "chained");
        assert_eq!(q.cut_chain(tok), Some(0));
        assert!(q.cancel(tok));
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_chain_without_links_is_a_plain_schedule() {
        let mut q = EventQueue::new();
        let tok = q.schedule_chain(&[], t(5), "e");
        assert_eq!(q.chain_links_passed(tok), None);
        assert_eq!(q.pop(), Some((t(5), "e")));
    }

    #[test]
    #[should_panic(expected = "must increase strictly")]
    fn chain_links_must_precede_the_event() {
        let mut q = EventQueue::new();
        q.schedule_chain(&[t(10), t(30)], t(30), ());
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
