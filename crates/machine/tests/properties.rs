//! Property tests for the machine model's invariants.

use cg_machine::{
    ComputeLookahead, CoreId, Domain, HwParams, Machine, RealmId, SecretId, Structure,
};
use cg_sim::SimDuration;
use proptest::prelude::*;

fn domain(i: u8) -> Domain {
    match i % 3 {
        0 => Domain::Host,
        1 => Domain::Realm(RealmId(1)),
        _ => Domain::Realm(RealmId(2)),
    }
}

/// The residency and slowdown of every test domain, bit for bit.
fn warmth_bits(m: &Machine, core: CoreId, params: &HwParams) -> Vec<[u64; 3]> {
    (0..3)
        .map(|i| {
            let ua = m.microarch(core);
            let d = domain(i);
            [
                ua.l1_residency(d).to_bits(),
                ua.bp_residency(d).to_bits(),
                ua.slowdown(d, params).to_bits(),
            ]
        })
        .collect()
}

proptest! {
    /// Compute chunks compose exactly: after any history of compute and
    /// fixed-cost work by other domains, a lookahead predicts the walls
    /// of the next single `run_compute` calls, and applying its first
    /// `n` chunks leaves warmth and taint bit-identical to those calls.
    #[test]
    fn applied_lookahead_is_bit_identical_to_single_chunks(
        history in prop::collection::vec((0u8..3, 1u64..300_000, 0u8..2), 0..12),
        who in 0u8..3,
        work_ns in 1u64..400_000,
        planned in 0usize..60,
        applied in 0usize..60,
    ) {
        let params = HwParams::small();
        let core = CoreId(1);
        let replay = |m: &mut Machine| {
            for &(d, ns, fixed) in &history {
                if fixed == 1 {
                    m.run_fixed(core, domain(d), SimDuration::nanos(ns));
                } else {
                    m.run_compute(core, domain(d), SimDuration::nanos(ns));
                }
            }
        };
        let mut single = Machine::new(params.clone()).unwrap();
        replay(&mut single);
        let mut ahead_run = Machine::new(params.clone()).unwrap();
        replay(&mut ahead_run);
        let work = SimDuration::nanos(work_ns);
        let mut ahead = ComputeLookahead::default();
        ahead_run.start_lookahead(core, domain(who), &mut ahead);
        let walls: Vec<_> = (0..planned.max(applied)).map(|_| ahead.next_wall(work, &params)).collect();
        for &wall in &walls[..applied] {
            prop_assert_eq!(single.run_compute(core, domain(who), work), wall);
        }
        ahead_run.apply_lookahead(core, &ahead, applied);
        prop_assert_eq!(warmth_bits(&ahead_run, core, &params), warmth_bits(&single, core, &params));
        for s in Structure::ALL {
            prop_assert_eq!(ahead_run.microarch(core).footprints(s), single.microarch(core).footprints(s));
        }
    }

    /// Wall time never undercuts ideal work, and slowdown is bounded by
    /// the parameterised maximum.
    #[test]
    fn compute_wall_time_is_bounded(
        ops in prop::collection::vec((0u8..3, 1u64..2_000), 1..80)
    ) {
        let params = HwParams::small();
        let mut m = Machine::new(params.clone()).unwrap();
        for (who, work_us) in ops {
            let work = SimDuration::micros(work_us);
            let wall = m.run_compute(CoreId(0), domain(who), work);
            prop_assert!(wall >= work);
            prop_assert!(wall <= work.scaled(params.max_slowdown()) + SimDuration::nanos(1));
        }
    }

    /// Residency warms monotonically under own compute and never leaves
    /// [0, 1].
    #[test]
    fn residency_stays_in_unit_interval(
        ops in prop::collection::vec((0u8..3, 1u64..500), 1..100)
    ) {
        let mut m = Machine::new(HwParams::small()).unwrap();
        for (who, work_us) in ops {
            let d = domain(who);
            let before = m.microarch(CoreId(0)).l1_residency(d);
            m.run_compute(CoreId(0), d, SimDuration::micros(work_us));
            let after = m.microarch(CoreId(0)).l1_residency(d);
            prop_assert!((0.0..=1.0).contains(&after));
            prop_assert!(after >= before, "own compute never cools own state");
        }
    }

    /// Taint only accumulates with execution (never appears on untouched
    /// cores), and the mitigation flush clears exactly the structures it
    /// claims to.
    #[test]
    fn taint_is_causal(cores in prop::collection::vec(0u16..4, 1..40)) {
        let mut m = Machine::new(HwParams::small()).unwrap();
        let victim = Domain::Realm(RealmId(7));
        let mut touched = std::collections::BTreeSet::new();
        for c in cores {
            m.run_secret_compute(CoreId(c), victim, SecretId(1), SimDuration::micros(10));
            touched.insert(c);
        }
        for c in 0..4u16 {
            let leaked = !m
                .microarch(CoreId(c))
                .probe(Structure::L1d, Domain::Host)
                .is_empty();
            prop_assert_eq!(leaked, touched.contains(&c), "core {}", c);
        }
        // Flush one touched core: BP/FillBuffer clean, caches not.
        if let Some(&c) = touched.iter().next() {
            m.microarch_mut(CoreId(c)).mitigation_flush();
            prop_assert!(m.microarch(CoreId(c)).probe(Structure::BranchPredictor, Domain::Host).is_empty());
            prop_assert!(m.microarch(CoreId(c)).probe(Structure::FillBuffer, Domain::Host).is_empty());
            prop_assert!(!m.microarch(CoreId(c)).probe(Structure::L1d, Domain::Host).is_empty());
        }
    }

    /// Granule delegate/undelegate sequences preserve the accounting
    /// invariant: delegated_count equals the live delegated set.
    #[test]
    fn granule_accounting_is_exact(
        ops in prop::collection::vec((0u64..32, prop::bool::ANY), 1..200)
    ) {
        let mut m = Machine::new(HwParams::small()).unwrap();
        let mut live = std::collections::BTreeSet::new();
        for (idx, delegate) in ops {
            let g = cg_machine::GranuleAddr::new(0x10_0000 + idx * 4096).unwrap();
            if delegate {
                if m.memory_mut().delegate(g).is_ok() {
                    prop_assert!(live.insert(idx));
                } else {
                    prop_assert!(live.contains(&idx));
                }
            } else if m.memory_mut().undelegate(g).is_ok() {
                prop_assert!(live.remove(&idx));
            } else {
                prop_assert!(!live.contains(&idx));
            }
            prop_assert_eq!(m.memory().delegated_count(), live.len() as u64);
        }
    }
}
