//! System-level fault-injection & recovery tests.
//!
//! The paper's §1 malicious host controls interrupt routing and memory,
//! so it can drop the single coalescing doorbell IPI, stall the wake-up
//! thread's core, or sit on a cache line. These tests drive the full
//! simulated stack (guest kernel → RMM run channel → KVM wake-up
//! thread) under seeded [`FaultPlan`]s and check the two properties the
//! recovery machinery promises: no vCPU is ever silently stranded, and
//! faulty runs stay byte-for-byte reproducible.

use cg_core::config::RecoveryConfig;
use cg_core::experiments::faults::run_fault_sweep;
use cg_core::Obs;
use cg_sim::{FaultPlan, SimDuration};

/// With retries + watchdog enabled, 10% doorbell loss must leave zero
/// wedged channels, and the recovery paths must actually fire.
#[test]
fn doorbell_loss_recovers_with_zero_wedged_channels() {
    let r = run_fault_sweep(
        FaultPlan::doorbell_loss(0.10),
        RecoveryConfig::paper_default(),
        SimDuration::millis(50),
        42,
        &Obs::disabled(),
    );
    assert!(r.doorbells_dropped > 0, "injector must bite");
    assert!(
        r.retries + r.watchdog_recovered > 0,
        "someone must recover the dropped doorbells"
    );
    assert_eq!(r.wedged_channels, 0);
    assert!(r.score > 0.0, "guest must keep making progress");
}

/// The ablation: with recovery disabled the very same fault plan
/// strands vCPUs — the silent-abandonment bug the machinery exists to
/// fix is real and observable.
#[test]
fn without_recovery_doorbell_loss_wedges_channels() {
    let r = run_fault_sweep(
        FaultPlan::doorbell_loss(0.10),
        RecoveryConfig::disabled(),
        SimDuration::millis(50),
        42,
        &Obs::disabled(),
    );
    assert!(r.doorbells_dropped > 0, "injector must bite");
    assert_eq!(r.retries, 0, "recovery is off");
    assert_eq!(r.watchdog_recovered, 0, "recovery is off");
    assert!(
        r.wedged_channels > 0,
        "a dropped doorbell with no recovery strands the vCPU forever"
    );
}

/// Same seed + same plan ⇒ the same run, down to the metrics
/// fingerprint (which folds in every counter, fault and recovery
/// included).
#[test]
fn faulty_runs_are_deterministic() {
    let run = || {
        run_fault_sweep(
            FaultPlan::doorbell_loss(0.05),
            RecoveryConfig::paper_default(),
            SimDuration::millis(30),
            1234,
            &Obs::disabled(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.doorbells_dropped, b.doorbells_dropped);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.watchdog_recovered, b.watchdog_recovered);
    assert_eq!(a.score, b.score);
}

/// Different seeds at the same plan produce different fault schedules —
/// the determinism above is per-seed, not a degenerate constant run.
#[test]
fn different_seeds_produce_different_fault_schedules() {
    let run = |seed| {
        run_fault_sweep(
            FaultPlan::doorbell_loss(0.05),
            RecoveryConfig::paper_default(),
            SimDuration::millis(30),
            seed,
            &Obs::disabled(),
        )
    };
    let (a, b) = (run(1), run(2));
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// Every fault class at once — drops, delays, host stalls, response
/// visibility delays, and wedged requests — and the run still completes
/// with nothing stranded.
#[test]
fn combined_fault_plan_still_completes() {
    let plan = FaultPlan {
        drop_doorbell_p: 0.05,
        delay_doorbell_p: 0.10,
        delay_doorbell: SimDuration::micros(50),
        stall_host_p: 0.05,
        stall_host: SimDuration::micros(100),
        delay_response_p: 0.10,
        delay_response: SimDuration::micros(20),
        wedge_request_p: 0.02,
        drop_completion_irq_p: 0.0,
        drop_ivc_doorbell_p: 0.0,
        dup_ivc_doorbell_p: 0.0,
        forge_ivc_doorbell_p: 0.0,
        rebind_interrupt_p: 0.0,
        migrate_frame_drop_p: 0.0,
        migrate_stall_p: 0.0,
        migrate_stall: SimDuration::ZERO,
        migrate_tamper_p: 0.0,
        request_burst_p: 0.0,
        request_burst: 0,
        frontend_stall_p: 0.0,
        frontend_stall: SimDuration::ZERO,
    };
    let r = run_fault_sweep(
        plan,
        RecoveryConfig::paper_default(),
        SimDuration::millis(50),
        7,
        &Obs::disabled(),
    );
    assert!(r.doorbells_dropped > 0);
    assert!(r.doorbells_delayed > 0);
    assert!(r.requests_wedged > 0);
    assert_eq!(r.wedged_channels, 0, "recovery must absorb every class");
    assert!(r.score > 0.0);
}

/// Watchdog-only recovery: with the client timeout pushed past the run
/// length, the periodic rescan is the sole safety net — and it alone
/// must catch every stranded exit.
#[test]
fn watchdog_alone_recovers_stranded_exits() {
    let recovery = RecoveryConfig {
        call_timeout: SimDuration::millis(500), // never fires in a 50 ms run
        ..RecoveryConfig::paper_default()
    };
    let r = run_fault_sweep(
        FaultPlan::doorbell_loss(0.10),
        recovery,
        SimDuration::millis(50),
        42,
        &Obs::disabled(),
    );
    assert!(r.doorbells_dropped > 0, "injector must bite");
    assert_eq!(r.retries, 0, "timeouts must never fire in this run");
    assert!(
        r.watchdog_recovered > 0,
        "the watchdog must be the one recovering"
    );
    assert_eq!(r.wedged_channels, 0);
}

/// The call-timeout chain keeps its phase across long guest runs: a
/// core-gapped CoreMark vCPU computes for several call timeouts between
/// exits, every exit doorbell is dropped and the watchdog is off, so the
/// chain alone must notice. Each call's first retry must fire at the
/// first point `call_issued_at + k·timeout_for(0)` after its exit — where
/// a timer re-armed every period while the guest ran would have fired —
/// and the retries must heal every wedge without any timeout finding the
/// guest still executing.
#[test]
fn call_timeout_chain_keeps_its_phase_across_long_guest_runs() {
    use cg_core::{System, SystemConfig, TraceOptions, VmSpec};
    use cg_sim::{SimTime, TraceKind};
    use cg_workloads::coremark::CoremarkPro;
    use cg_workloads::kernel::GuestKernel;

    let mut config = SystemConfig::paper_default();
    config.machine.num_cores = 2;
    config.fault = FaultPlan::doorbell_loss(1.0);
    // Two dropped re-rings, then the exhausted third retry rings
    // regardless of injection.
    config.recovery = RecoveryConfig {
        max_retries: 2,
        watchdog_period: SimDuration::ZERO,
        ..RecoveryConfig::paper_default()
    };
    let policy = config.recovery.retry_policy();
    let timeout = policy.timeout_for(0);
    // A console write forces an exit every 3 ms: after the 1.4 ms retry
    // ladder, the guest computes for about eight base timeouts.
    let console = SimDuration::millis(3);
    let app = CoremarkPro::new(1, SimDuration::micros(100));
    let guest =
        GuestKernel::new(1, config.host.guest_hz, Box::new(app)).with_console_writes(console);
    let mut system = System::new(config);
    system.configure_trace(TraceOptions::new().structured_capture());
    system
        .add_vm(VmSpec::core_gapped(1), Box::new(guest), None)
        .expect("admission");
    system.run_for(SimDuration::millis(20));

    let records = system.structured_records();
    let rpc = |needle: &str| -> Vec<SimTime> {
        records
            .iter()
            .filter(|r| r.kind == TraceKind::Rpc && r.detail.contains(needle))
            .map(|r| r.time)
            .collect()
    };
    let issues = rpc("chan.post_request");
    let exits = rpc("chan.post_response");
    let first_retries = rpc("rpc.retry attempt=1 stuck=responded");
    let mut long_calls = 0;
    for (call, &issued) in issues.iter().enumerate() {
        let next_issue = issues.get(call + 1).copied().unwrap_or(SimTime::MAX);
        let Some(&exited) = exits.iter().find(|&&e| e > issued && e < next_issue) else {
            continue; // still executing when the run ended
        };
        let Some(&retry) = first_retries
            .iter()
            .find(|&&t| t > exited && t < next_issue)
        else {
            continue; // retries still pending when the run ended
        };
        let periods = exited.duration_since(issued).as_nanos() / timeout.as_nanos() + 1;
        let expected = issued + SimDuration::nanos(periods * timeout.as_nanos());
        assert_eq!(
            retry, expected,
            "call {call} issued at {issued}, exit posted at {exited}"
        );
        if exited.duration_since(issued) > timeout * 3 {
            long_calls += 1;
        }
    }
    assert!(
        long_calls >= 3,
        "only {long_calls} calls outlasted three timeouts"
    );

    let c = &system.metrics().counters;
    assert!(c.get("fault.doorbell_dropped") > 0, "injector must bite");
    assert_eq!(c.get("rpc.timeout_serving"), 0);
    // A call lives at most one console period plus the retry ladder.
    let ladder: SimDuration = (0..=policy.max_retries)
        .map(|a| policy.timeout_for(a))
        .fold(SimDuration::ZERO, |sum, t| sum + t);
    assert_eq!(
        system.wedged_channels(console + ladder + timeout),
        0,
        "every wedge heals"
    );
}
