//! Property tests for the paper's security claim: under core gapping,
//! *no* schedule of attacker/victim activity produces same-core leakage,
//! while shared-core co-scheduling always can.

use cg_attacks::leakage::probe_core;
use cg_core::experiments::security::{run_attack, AttackScenario};
use cg_core::Obs;
use cg_machine::{CoreId, Domain, HwParams, Machine, SecretId};
use cg_sim::SimDuration;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over arbitrary seeds and run lengths, core gapping never leaks
    /// through per-core structures, and the attacker still runs.
    #[test]
    fn core_gapping_never_leaks_same_core(seed in 0u64..10_000, millis in 10u64..80) {
        let o = run_attack(AttackScenario::CoreGapped, SimDuration::millis(millis), seed, &Obs::disabled());
        prop_assert!(o.probes > 0);
        prop_assert_eq!(o.same_core_leaks, 0);
        prop_assert_eq!(o.same_core_secret_leaks, 0);
    }

    /// Shared-core co-scheduling leaks for every seed (the status quo).
    #[test]
    fn shared_core_always_leaks(seed in 0u64..10_000) {
        let o = run_attack(
            AttackScenario::SharedCoreTimeSliced,
            SimDuration::millis(40),
            seed, &Obs::disabled(),
        );
        prop_assert!(o.same_core_secret_leaks > 0);
    }

    /// At the machine level: arbitrary interleavings of victim/attacker
    /// compute on *distinct* cores never create a same-core channel.
    #[test]
    fn machine_level_distinct_cores_never_leak(
        ops in prop::collection::vec((0u8..2, 1u64..500), 1..60)
    ) {
        let mut m = Machine::new(HwParams::small()).unwrap();
        let victim = Domain::Realm(cg_machine::RealmId(1));
        let attacker = Domain::Realm(cg_machine::RealmId(2));
        for (who, work) in ops {
            if who == 0 {
                m.run_secret_compute(CoreId(1), victim, SecretId(1), SimDuration::micros(work));
            } else {
                m.run_compute(CoreId(2), attacker, SimDuration::micros(work));
            }
        }
        let report = probe_core(&m, CoreId(2), attacker);
        prop_assert!(report.core_gapping_holds());
    }

    /// Conversely, any interleaving that shares a core leaks as soon as
    /// the victim has run there.
    #[test]
    fn machine_level_shared_core_leaks_after_victim_ran(
        before in 1u64..300, after in 1u64..300
    ) {
        let mut m = Machine::new(HwParams::small()).unwrap();
        let victim = Domain::Realm(cg_machine::RealmId(1));
        let attacker = Domain::Realm(cg_machine::RealmId(2));
        m.run_compute(CoreId(0), attacker, SimDuration::micros(before));
        m.run_secret_compute(CoreId(0), victim, SecretId(1), SimDuration::micros(after));
        let report = probe_core(&m, CoreId(0), attacker);
        prop_assert!(!report.core_gapping_holds());
    }
}
