//! Property tests on core data-structure invariants: the event queue,
//! realm translation tables, the core planner, and the vCPU bindings.

use std::collections::BTreeMap;

use cg_cca::{RecId, RttLevel};
use cg_host::CorePlanner;
use cg_machine::{CoreId, GranuleAddr, RealmId};
use cg_rmm::{CoreGap, Rtt};
use cg_sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// Per-op reference for [`EventQueue`]: a `BTreeMap` keyed by `(time,
/// seq)`, in which a chain's links are ordinary entries that, when the
/// queue looks past them, schedule their successor (the next link or the
/// chained event) with the next sequence number.
#[derive(Default)]
struct QueueModel {
    entries: BTreeMap<(SimTime, u64), ModelItem>,
    next_seq: u64,
    chains: Vec<ModelChain>,
}

#[derive(Clone, Copy)]
enum ModelItem {
    Event(usize),
    Link(usize),
}

struct ModelChain {
    links: Vec<SimTime>,
    at: SimTime,
    event: usize,
    passed: usize,
    /// The chain's current entry (a link or its event), while pending.
    key: Option<(SimTime, u64)>,
}

impl QueueModel {
    fn key(&mut self, at: SimTime) -> (SimTime, u64) {
        self.next_seq += 1;
        (at, self.next_seq - 1)
    }

    fn schedule(&mut self, at: SimTime, event: usize) -> (SimTime, u64) {
        let key = self.key(at);
        self.entries.insert(key, ModelItem::Event(event));
        key
    }

    fn schedule_chain(&mut self, links: Vec<SimTime>, at: SimTime, event: usize) -> usize {
        let key = self.key(links[0]);
        let c = self.chains.len();
        self.entries.insert(key, ModelItem::Link(c));
        self.chains.push(ModelChain {
            links,
            at,
            event,
            passed: 0,
            key: Some(key),
        });
        c
    }

    /// Fires links until the first entry is an event.
    fn first_event(&mut self) -> Option<(SimTime, u64)> {
        loop {
            let (&key, &item) = self.entries.first_key_value()?;
            let ModelItem::Link(c) = item else {
                return Some(key);
            };
            self.entries.remove(&key);
            let ch = &mut self.chains[c];
            ch.passed += 1;
            let (at, item) = match ch.links.get(ch.passed) {
                Some(&next) => (next, ModelItem::Link(c)),
                None => (ch.at, ModelItem::Event(ch.event)),
            };
            let key = self.key(at);
            self.entries.insert(key, item);
            self.chains[c].key = Some(key);
        }
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let key = self.first_event()?;
        match self.entries.remove(&key) {
            Some(ModelItem::Event(e)) => Some((key.0, e)),
            _ => unreachable!("first_event returns an event"),
        }
    }

    fn cancel_chain(&mut self, c: usize) -> bool {
        match self.chains[c].key.take() {
            Some(key) => self.entries.remove(&key).is_some(),
            None => false,
        }
    }

    /// Turns the chain's pending link into its event, in place.
    fn cut_chain(&mut self, c: usize) -> Option<usize> {
        let key = self.chains[c].key?;
        let event = self.chains[c].event;
        match self.entries.get_mut(&key) {
            Some(item @ ModelItem::Link(_)) => {
                *item = ModelItem::Event(event);
                Some(self.chains[c].passed)
            }
            _ => None,
        }
    }

    fn links_passed(&self, c: usize) -> Option<usize> {
        let key = self.chains[c].key?;
        match self.entries.get(&key) {
            Some(ModelItem::Link(_)) => Some(self.chains[c].passed),
            _ => None,
        }
    }
}

#[derive(Clone, Copy)]
enum ModelToken {
    Plain((SimTime, u64)),
    Chain(usize),
}

proptest! {
    /// Events always pop in `(time, schedule order)` order regardless of
    /// the schedule/cancel/pop interleaving, checked op by op against a
    /// `(time, seq)` model: pops, peeks, `len()` and `cancel`'s result
    /// (including cancel-after-fire, double cancel and tokens whose slot
    /// a later event reuses) all agree, and tombstones never hold the
    /// heap above twice the live set plus the compaction floor.
    ///
    /// Chained (as-if) schedules are checked against the per-op
    /// expansion: in the model every virtual link is a real entry that
    /// schedules its successor when it fires, so a chained event is
    /// ordered exactly as one scheduled at its last link's instant, and
    /// same-instant ties against every link resolve by the order in which
    /// the link would have been scheduled. `chain_links_passed` must
    /// match the model's progress through the chain, and `cut_chain`
    /// must turn the pending link into the event in place.
    #[test]
    fn event_queue_total_order(
        ops in prop::collection::vec((0u8..11, 0u64..64, 0usize..1024), 1..400)
    ) {
        let mut q = EventQueue::new();
        let mut model = QueueModel::default();
        // Every token ever issued, indexed by event id (its payload).
        let mut tokens: Vec<(cg_sim::EventToken, ModelToken)> = Vec::new();
        for &(op, dt, pick) in &ops {
            match op {
                // Schedule (the most common op, so the heap grows past the
                // compaction floor).
                0..=3 => {
                    let at = q.now() + SimDuration::nanos(dt);
                    let id = tokens.len();
                    let key = model.schedule(at, id);
                    tokens.push((q.schedule_at(at, id), ModelToken::Plain(key)));
                }
                // Schedule behind one to three links on a coarse grid, so
                // links tie with plain events and with other chains.
                8 => {
                    let step = 1 + (pick % 4) as u64 * 4;
                    let n = 1 + (pick / 4) % 3;
                    let first = q.now() + SimDuration::nanos(dt / 4 * 4);
                    let links: Vec<SimTime> = (0..n as u64)
                        .map(|i| first + SimDuration::nanos(i * step))
                        .collect();
                    let at = *links.last().unwrap() + SimDuration::nanos(step);
                    let id = tokens.len();
                    let tok = q.schedule_chain(&links, at, id);
                    let c = model.schedule_chain(links, at, id);
                    tokens.push((tok, ModelToken::Chain(c)));
                }
                // Cancel any token: live, fired or already cancelled.
                4 | 5 if !tokens.is_empty() => {
                    let id = pick % tokens.len();
                    let (tok, mt) = tokens[id];
                    let was_live = match mt {
                        ModelToken::Plain(key) => model.entries.remove(&key).is_some(),
                        ModelToken::Chain(c) => model.cancel_chain(c),
                    };
                    prop_assert_eq!(q.cancel(tok), was_live, "cancel of event {}", id);
                }
                9 if !tokens.is_empty() => {
                    let id = pick % tokens.len();
                    let (tok, mt) = tokens[id];
                    let expect = match mt {
                        ModelToken::Plain(_) => None,
                        ModelToken::Chain(c) => model.links_passed(c),
                    };
                    prop_assert_eq!(q.chain_links_passed(tok), expect, "event {}", id);
                }
                // Cut a chain at its next link (or try to: any token).
                10 if !tokens.is_empty() => {
                    let id = pick % tokens.len();
                    let (tok, mt) = tokens[id];
                    let expect = match mt {
                        ModelToken::Plain(_) => None,
                        ModelToken::Chain(c) => model.cut_chain(c),
                    };
                    prop_assert_eq!(q.cut_chain(tok), expect, "cut of event {}", id);
                }
                6 => prop_assert_eq!(q.pop(), model.pop()),
                _ => prop_assert_eq!(q.peek_time(), model.first_event().map(|(t, _)| t)),
            }
            prop_assert_eq!(q.len(), model.entries.len());
            prop_assert_eq!(q.is_empty(), model.entries.is_empty());
            prop_assert!(
                q.heap_len() <= 2 * q.len() + 64,
                "heap {} entries for {} live", q.heap_len(), q.len()
            );
        }
        // Draining fires exactly the live events, in model order.
        let mut rest = Vec::new();
        while let Some(popped) = q.pop() {
            rest.push(popped);
            prop_assert!(q.heap_len() <= 2 * q.len() + 64);
        }
        let expect: Vec<_> = std::iter::from_fn(|| model.pop()).collect();
        prop_assert_eq!(rest, expect);
        // No token cancels anything once the queue is drained.
        for &(tok, _) in &tokens {
            prop_assert!(!q.cancel(tok));
        }
    }

    /// RTT map/unmap round trips preserve translation consistency.
    #[test]
    fn rtt_map_unmap_consistency(
        pages in prop::collection::btree_set(0u64..512, 1..64)
    ) {
        let g = |n: u64| GranuleAddr::new(n * 4096).unwrap();
        let mut rtt = Rtt::new(g(0));
        rtt.create_table(RttLevel(1), 0, g(1)).unwrap();
        rtt.create_table(RttLevel(2), 0, g(2)).unwrap();
        rtt.create_table(RttLevel(3), 0, g(3)).unwrap();
        for &p in &pages {
            rtt.map(p * 4096, g(100 + p), true).unwrap();
        }
        prop_assert_eq!(rtt.mapping_count(), pages.len());
        for &p in &pages {
            prop_assert_eq!(rtt.translate(p * 4096).unwrap().pa, g(100 + p));
        }
        for &p in &pages {
            rtt.unmap(p * 4096).unwrap();
            prop_assert!(rtt.translate(p * 4096).is_err());
        }
        prop_assert_eq!(rtt.mapping_count(), 0);
    }

    /// The planner never double-allocates a core and conserves the pool.
    #[test]
    fn planner_conserves_cores(
        requests in prop::collection::vec(1u16..6, 1..20)
    ) {
        let pool_size = 16u16;
        let mut planner = CorePlanner::new((0..pool_size).map(CoreId));
        let mut allocated: Vec<(RealmId, Vec<CoreId>)> = Vec::new();
        for (i, &n) in requests.iter().enumerate() {
            let realm = RealmId(i as u32);
            match planner.admit(realm, n) {
                Ok(cores) => {
                    prop_assert_eq!(cores.len(), n as usize);
                    for c in &cores {
                        for (_, other) in &allocated {
                            prop_assert!(!other.contains(c), "double allocation of {c}");
                        }
                    }
                    allocated.push((realm, cores));
                }
                Err(_) => {
                    let used: usize = allocated.iter().map(|(_, c)| c.len()).sum();
                    prop_assert!(used + n as usize > pool_size as usize);
                }
            }
        }
        let used: usize = allocated.iter().map(|(_, c)| c.len()).sum();
        prop_assert_eq!(planner.free_cores() as usize, pool_size as usize - used);
        // Releasing everything restores the full pool.
        for (realm, _) in allocated {
            planner.release(realm).unwrap();
        }
        prop_assert_eq!(planner.free_cores(), pool_size);
    }

    /// EVENT_IDX notification predicate: `need_event(e, n, o)` must
    /// equal membership of `e` in the half-open window [o, n) mod 2^16
    /// for every combination of indices — in particular at the u16
    /// wraparound, where `new_idx` has advanced exactly once past the
    /// armed event index.
    #[test]
    fn need_event_equals_window_membership(
        event in 0u16..=u16::MAX,
        old in 0u16..=u16::MAX,
        advance in 0u16..1024,
    ) {
        let new = old.wrapping_add(advance);
        let in_window = event.wrapping_sub(old) < new.wrapping_sub(old);
        prop_assert_eq!(
            cg_virtio::need_event(event, new, old),
            in_window,
            "event={:#06x} old={:#06x} new={:#06x}", event, old, new
        );
    }

    /// The wrap boundary itself, pinned exhaustively: for every `old`,
    /// arming at `event = old` and advancing exactly one entry must
    /// notify; arming one behind must not.
    #[test]
    fn need_event_one_past_event_always_notifies(old in 0u16..=u16::MAX) {
        let new = old.wrapping_add(1);
        prop_assert!(cg_virtio::need_event(old, new, old));
        prop_assert!(!cg_virtio::need_event(old.wrapping_sub(1), new, old));
        prop_assert!(!cg_virtio::need_event(new, new, old));
    }

    /// State machine over admit/release/replan: no core is ever
    /// allocated to two realms, the pool is conserved
    /// (free + allocated == pool), fragmentation stays total and in
    /// [0, 1], and a cloned planner replaying the same operations stays
    /// byte-identical.
    #[test]
    fn planner_state_machine_invariants(
        ops in prop::collection::vec((0u8..4, 0u32..8, 1u16..6), 1..60)
    ) {
        let pool_size = 12u16;
        let mut planner = CorePlanner::new((0..pool_size).map(CoreId));
        let mut twin = planner.clone();
        for (op, realm, n) in ops {
            let realm = RealmId(realm);
            match op {
                0 | 1 => {
                    let a = planner.admit(realm, n);
                    let b = twin.admit(realm, n);
                    prop_assert_eq!(&a, &b, "clone diverged on admit");
                    if let Ok(cores) = a {
                        prop_assert_eq!(cores.len(), n as usize);
                    }
                }
                2 => {
                    prop_assert_eq!(planner.release(realm), twin.release(realm));
                }
                _ => {
                    prop_assert_eq!(
                        planner.replan_compact(),
                        twin.replan_compact()
                    );
                }
            }
            // Invariant 1: no double allocation across realms.
            let mut seen = std::collections::BTreeSet::new();
            let mut allocated = 0u16;
            for r in (0..8).map(RealmId) {
                if let Some(cores) = planner.allocation(r) {
                    allocated += cores.len() as u16;
                    for c in cores {
                        prop_assert!(seen.insert(*c), "core {c} double-allocated");
                    }
                }
            }
            // Invariant 2: pool conservation.
            prop_assert_eq!(planner.free_cores() + allocated, pool_size);
            // Invariant 3: fragmentation is total and bounded.
            let f = planner.fragmentation();
            prop_assert!(f.is_finite(), "fragmentation produced NaN/inf");
            prop_assert!((0.0..=1.0).contains(&f), "fragmentation {f} out of range");
        }
    }

    /// The binding state machine never lets two realms own one core and
    /// never lets one vCPU bind two cores.
    #[test]
    fn coregap_binding_invariants(
        attempts in prop::collection::vec((0u32..4, 0u32..3, 0u16..6), 1..80)
    ) {
        let mut cg = CoreGap::new();
        for c in 0..6u16 {
            cg.dedicate(CoreId(c)).unwrap();
        }
        for (realm, vcpu, core) in attempts {
            let rec = RecId::new(RealmId(realm), vcpu);
            let _ = cg.check_and_bind(rec, CoreId(core));
            // Invariant 1: every bound vCPU has exactly one core.
            let bindings = cg.bindings_snapshot();
            let mut seen = std::collections::BTreeSet::new();
            for (r, _) in &bindings {
                prop_assert!(seen.insert(*r), "duplicate binding for {r}");
            }
            // Invariant 2: a core's owner matches every vCPU bound to it.
            for (r, c) in &bindings {
                prop_assert_eq!(cg.core_owner(*c), Some(r.realm));
            }
        }
    }
}
