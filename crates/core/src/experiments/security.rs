//! The security evaluation: does core gapping actually stop the leaks?
//!
//! These scenarios drive a victim CVM (computing on a planted secret)
//! and an attacker VM (probing its core's microarchitectural state)
//! under each execution mode, then ask the taint machinery what the
//! attacker learned. This *checks* the paper's central claim rather than
//! assuming it: policy code never reads taint.

use cg_machine::{CoreId, Domain, SecretId};
use cg_sim::SimDuration;
use cg_workloads::attacker::{AttackerLoop, VictimLoop};
use cg_workloads::kernel::GuestKernel;

use crate::config::{SystemConfig, VmSpec};
use crate::obs::Obs;
use crate::system::System;

/// The isolation configuration under attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackScenario {
    /// Victim and attacker VMs time-share one core (the hypervisor
    /// co-schedules them — the status quo a malicious host can force).
    SharedCoreTimeSliced,
    /// Same co-scheduling, but the VMs are confidential and the monitor
    /// applies its mitigation flush on every transition (shows flushing
    /// is insufficient: caches/TLBs survive).
    SharedCoreConfidential,
    /// Core-gapped CVMs: the RMM refuses co-location; each VM owns its
    /// cores for life.
    CoreGapped,
}

impl AttackScenario {
    /// All scenarios.
    pub const ALL: [AttackScenario; 3] = [
        AttackScenario::SharedCoreTimeSliced,
        AttackScenario::SharedCoreConfidential,
        AttackScenario::CoreGapped,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AttackScenario::SharedCoreTimeSliced => "shared core, time-sliced VMs",
            AttackScenario::SharedCoreConfidential => "shared core, CVMs + mitigation flush",
            AttackScenario::CoreGapped => "core-gapped CVMs",
        }
    }
}

/// What the attacker (and the untrusted host) learned.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Probes the attacker issued.
    pub probes: u64,
    /// Same-core foreign footprints observed (the channel core gapping
    /// closes).
    pub same_core_leaks: usize,
    /// Same-core *secret-dependent* observations — the attack payload.
    pub same_core_secret_leaks: usize,
    /// Shared-LLC observations (out of scope for core gapping).
    pub llc_leaks: usize,
    /// Whether the host could ever have probed the victim's core (i.e.
    /// host code executed there after victim code).
    pub host_sees_victim_core: bool,
}

impl ScenarioOutcome {
    /// The paper's property: no same-core leakage at all.
    pub fn core_gapping_holds(&self) -> bool {
        self.same_core_leaks == 0 && !self.host_sees_victim_core
    }
}

/// Runs `scenario` for `duration` and reports what leaked.
///
/// Records through the observability bundle `obs`.
pub fn run_attack(
    scenario: AttackScenario,
    duration: SimDuration,
    seed: u64,
    obs: &Obs,
) -> ScenarioOutcome {
    let mut config = SystemConfig::paper_default();
    config.seed = seed;
    config.machine.num_cores = 6;
    let (victim_spec, attacker_spec) = match scenario {
        AttackScenario::SharedCoreTimeSliced => {
            config.rmm = cg_rmm::RmmConfig::shared_core();
            config.num_host_cores = 1;
            // The malicious hypervisor pins both VMs to core 0.
            (
                VmSpec::shared_core(1).with_cores(vec![CoreId(0)]),
                VmSpec::shared_core(1).with_cores(vec![CoreId(0)]),
            )
        }
        AttackScenario::SharedCoreConfidential => {
            config.rmm = cg_rmm::RmmConfig::shared_core();
            config.num_host_cores = 1;
            (
                VmSpec::shared_core_confidential(1).with_cores(vec![CoreId(0)]),
                VmSpec::shared_core_confidential(1).with_cores(vec![CoreId(0)]),
            )
        }
        AttackScenario::CoreGapped => {
            config.rmm = cg_rmm::RmmConfig::core_gapped();
            config.num_host_cores = 1;
            // The planner assigns distinct dedicated cores; a hypervisor
            // attempt to co-schedule would be refused by the RMM (see
            // the binding tests in cg-rmm).
            (VmSpec::core_gapped(1), VmSpec::core_gapped(1))
        }
    };

    let mut system = System::new(config.clone());
    system.attach_obs(obs);
    let secret = SecretId(0xDEAD);
    let victim = GuestKernel::new(
        1,
        250,
        Box::new(VictimLoop::new(secret, SimDuration::micros(80))),
    );
    let attacker = GuestKernel::new(1, 250, Box::new(AttackerLoop::new(SimDuration::micros(60))));
    let victim_vm = system
        .add_vm(victim_spec, Box::new(victim), None)
        .expect("victim admission");
    let attacker_vm = system
        .add_vm(attacker_spec, Box::new(attacker), None)
        .expect("attacker admission");
    system.run_for(duration);

    let attacker_domain = Domain::Realm(system.vm_realm(attacker_vm));
    let victim_domain = Domain::Realm(system.vm_realm(victim_vm));
    let report = system.attack_report();
    let attacker_same_core: Vec<_> = report
        .same_core_leaks()
        .into_iter()
        .filter(|l| l.observer == attacker_domain && l.victim == victim_domain)
        .collect();
    let secret_leaks = attacker_same_core
        .iter()
        .filter(|l| l.secret == Some(secret))
        .count();
    let llc = report
        .llc_leaks()
        .into_iter()
        .filter(|l| l.observer == attacker_domain && l.victim == victim_domain)
        .count();

    // Did untrusted host code ever execute on the victim's core after the
    // victim? Under core gapping the dedicated core only ever runs the
    // victim and the monitor.
    let victim_core = CoreId(if scenario == AttackScenario::CoreGapped {
        1
    } else {
        0
    });
    let host_view = cg_attacks::leakage::probe_core(system.machine(), victim_core, Domain::Host);
    let host_could_run_there = match scenario {
        AttackScenario::CoreGapped => false, // RMM owns the core; host is locked out
        _ => true,
    };
    let host_sees = host_could_run_there
        && host_view
            .same_core_leaks()
            .iter()
            .any(|l| l.victim == victim_domain);

    let probes = system
        .vm_report(attacker_vm)
        .stats
        .counters
        .get("attacker.probes");
    ScenarioOutcome {
        probes,
        same_core_leaks: attacker_same_core.len(),
        same_core_secret_leaks: secret_leaks,
        llc_leaks: llc,
        host_sees_victim_core: host_sees,
    }
}

/// The malicious-interruption scenario: a core-gapped victim is kicked
/// by the host at a hostile frequency. Denial of service is out of scope
/// (the host controls scheduling), but confidentiality must survive:
/// despite thousands of attacker-chosen exits, host code never executes
/// on the victim's core, so its footprints stay unreachable.
#[derive(Debug, Clone)]
pub struct InterruptionOutcome {
    /// Exits the harassment forced.
    pub forced_exits: u64,
    /// Whether the victim made forward progress regardless.
    pub victim_progressed: bool,
    /// Whether the host could ever schedule code on the victim's core.
    pub host_can_reach_victim_core: bool,
    /// Victim footprints observable from the host's own cores.
    pub host_core_victim_leaks: usize,
}

/// Runs the malicious-interruption scenario for `duration`.
///
/// Records through the observability bundle `obs`.
pub fn run_malicious_interruption(
    kick_period: SimDuration,
    duration: SimDuration,
    seed: u64,
    obs: &Obs,
) -> InterruptionOutcome {
    let mut config = SystemConfig::paper_default();
    config.seed = seed;
    config.machine.num_cores = 4;
    config.num_host_cores = 1;
    let mut system = System::new(config);
    system.attach_obs(obs);
    let secret = SecretId(0xBEEF);
    let victim = GuestKernel::new(
        1,
        250,
        Box::new(VictimLoop::new(secret, SimDuration::micros(80))),
    );
    let vm = system
        .add_vm(VmSpec::core_gapped(1), Box::new(victim), None)
        .expect("victim admission");
    system.harass(vm, 0, kick_period);
    system.run_for(duration);

    let victim_core = CoreId(1);
    let victim_domain = Domain::Realm(system.vm_realm(vm));
    let report = system.vm_report(vm);
    // What could the host see from the cores it can actually run on?
    let mut host_leaks = 0;
    for core in system.host_cores() {
        let probe = cg_attacks::leakage::probe_core(system.machine(), core, Domain::Host);
        host_leaks += probe
            .same_core_leaks()
            .iter()
            .filter(|l| l.victim == victim_domain)
            .count();
    }
    InterruptionOutcome {
        forced_exits: report.exits_total,
        victim_progressed: report.stats.counters.get("victim.iterations") > 0,
        host_can_reach_victim_core: system.machine().cpu(victim_core).is_host_schedulable(),
        host_core_victim_leaks: host_leaks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: SimDuration = SimDuration::millis(50);

    #[test]
    fn shared_core_time_slicing_leaks_secrets() {
        let o = run_attack(
            AttackScenario::SharedCoreTimeSliced,
            RUN,
            9,
            &Obs::disabled(),
        );
        assert!(o.probes > 10);
        assert!(o.same_core_leaks > 0, "co-scheduling must leak");
        assert!(o.same_core_secret_leaks > 0, "secret footprints observable");
        assert!(o.host_sees_victim_core);
        assert!(!o.core_gapping_holds());
    }

    #[test]
    fn mitigation_flush_does_not_save_shared_core_cvms() {
        let o = run_attack(
            AttackScenario::SharedCoreConfidential,
            RUN,
            9,
            &Obs::disabled(),
        );
        // The monitor flushes BP/fill buffers on every boundary, but
        // cache and TLB footprints survive co-scheduling.
        assert!(o.same_core_leaks > 0);
        assert!(o.same_core_secret_leaks > 0);
    }

    #[test]
    fn interruption_storm_cannot_extract_the_secret() {
        let o = run_malicious_interruption(
            SimDuration::micros(200),
            SimDuration::millis(50),
            9,
            &Obs::disabled(),
        );
        // The harassment worked as an attack primitive...
        assert!(o.forced_exits > 100, "only {} forced exits", o.forced_exits);
        assert!(o.victim_progressed);
        // ...but the victim's core never becomes host-schedulable and
        // nothing of the victim is visible from the host's cores.
        assert!(!o.host_can_reach_victim_core);
        assert_eq!(o.host_core_victim_leaks, 0);
    }

    #[test]
    fn core_gapping_eliminates_same_core_leakage() {
        let o = run_attack(AttackScenario::CoreGapped, RUN, 9, &Obs::disabled());
        assert!(o.probes > 10, "attacker did run ({} probes)", o.probes);
        assert_eq!(o.same_core_leaks, 0);
        assert_eq!(o.same_core_secret_leaks, 0);
        assert!(o.core_gapping_holds());
        // The LLC channel remains — exactly the threat-model boundary
        // (§2.4 recommends hardware cache partitioning for it).
        assert!(o.llc_leaks > 0);
    }
}
