//! System-level tests of the cg-fleet serving plane.
//!
//! Drives the full stack — load generator → per-node front-end →
//! core-gapped ServiceGuest CVMs → completion sinks → SLO-driven
//! elastic plane — under a seeded fault plan, and checks the three
//! properties the serving plane promises: byte-identical determinism,
//! closed shed accounting, and higher SLO attainment with shedding on
//! than off under overload.

use cg_core::experiments::fleet::{run_fleet, FleetConfig};
use cg_core::Obs;
use cg_sim::{FaultPlan, SimDuration};

/// The paper configuration under a 10% request-burst plan: client
/// retry storms duplicate one in ten arrivals at the front-end.
fn bursty() -> FleetConfig {
    FleetConfig {
        plan: FaultPlan::request_bursts(0.10, 2),
        ..FleetConfig::paper_default()
    }
}

/// Same seed + same plan ⇒ the same run, down to the cluster-wide
/// metrics fingerprint (which folds in every fleet.* counter).
#[test]
fn fleet_runs_are_deterministic_under_request_bursts() {
    let (a, b) = (
        run_fleet(&bursty(), &Obs::disabled()),
        run_fleet(&bursty(), &Obs::disabled()),
    );
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.slo_met, b.slo_met);
    for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(ta.p99_us, tb.p99_us);
        assert_eq!(ta.shed_by, tb.shed_by);
    }
    let mut other = bursty();
    other.seed ^= 1;
    let c = run_fleet(&other, &Obs::disabled());
    assert_ne!(a.fingerprint, c.fingerprint, "seed must matter");
}

/// The accounting identity the typed shed reasons buy: every offered
/// request is admitted, shed (with a reason), or still in flight —
/// nothing vanishes, per tenant and in aggregate, even with burst
/// duplicates and a mid-run migration.
#[test]
fn shed_accounting_closes_under_request_bursts() {
    let r = run_fleet(&bursty(), &Obs::disabled());
    assert_eq!(r.offered, r.admitted + r.shed);
    assert_eq!(r.admitted, r.completed + r.in_flight);
    for t in &r.tenants {
        assert_eq!(t.offered, t.admitted + t.shed);
        assert_eq!(t.admitted, t.completed + t.in_flight);
        let by_reason: u64 = t.shed_by.iter().map(|&(_, c)| c).sum();
        assert_eq!(t.shed, by_reason, "every shed must carry a reason");
    }
    assert!(r.shed > 0, "bursts over an overloaded node must shed");
}

/// The headline claim: under overload, admission control + shedding
/// holds strictly higher SLO attainment than admitting everything —
/// bounded queues beat unbounded ones even though every shed counts
/// as a miss.
#[test]
fn shedding_on_beats_shedding_off_under_overload() {
    let on = run_fleet(&FleetConfig::paper_default(), &Obs::disabled());
    let off = run_fleet(
        &FleetConfig::paper_default().shedding_off(),
        &Obs::disabled(),
    );
    assert_eq!(on.offered, off.offered, "same offered load by design");
    assert!(
        on.attainment > off.attainment,
        "shedding-on {:.3} must beat shedding-off {:.3}",
        on.attainment,
        off.attainment
    );
    // And the elastic plane must beat being stuck at the initial size.
    let stat = run_fleet(
        &FleetConfig::paper_default().static_allocation(),
        &Obs::disabled(),
    );
    assert!(
        on.attainment > stat.attainment,
        "elastic {:.3} must beat static {:.3}",
        on.attainment,
        stat.attainment
    );
}

/// The elastic plane reacts to saturation: the oversubscribed hot node
/// forces at least one grow and, once its pool is exhausted, a
/// rebalancing migration to the cold node.
#[test]
fn saturation_triggers_growth_and_migration() {
    let r = run_fleet(&FleetConfig::paper_default(), &Obs::disabled());
    assert!(r.resizes_up > 0, "SLO pressure must grow the hot tenants");
    assert!(
        r.migrations > 0,
        "an exhausted pool must push a tenant to the cold node"
    );
    let moved: Vec<_> = r.tenants.iter().filter(|t| t.node != 0).collect();
    assert!(
        moved.len() > 1,
        "some tenant must actually end up off the hot node"
    );
}

/// Front-end stall faults shed with their own typed reason and leave
/// the run deterministic.
#[test]
fn frontend_stalls_shed_with_typed_reason() {
    let cfg = FleetConfig {
        plan: FaultPlan::frontend_stalls(0.02, SimDuration::micros(200)),
        ..FleetConfig::paper_default()
    };
    let (a, b) = (
        run_fleet(&cfg, &Obs::disabled()),
        run_fleet(&cfg, &Obs::disabled()),
    );
    assert_eq!(a.fingerprint, b.fingerprint);
    let stalled: u64 = a
        .tenants
        .iter()
        .flat_map(|t| &t.shed_by)
        .filter(|&&(label, _)| label == "stalled")
        .map(|&(_, c)| c)
        .sum();
    assert!(stalled > 0, "stall windows must drop requests");
    assert_eq!(a.offered, a.admitted + a.shed, "identity still closes");
}
