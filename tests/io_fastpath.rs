//! Integration coverage of the shared-memory fast-path I/O plane: the
//! SR-IOV no-exit regression, completion-interrupt loss healed by the
//! I/O watchdog rescan, and run-level determinism with the I/O-plane
//! thread scheduled.

use cg_core::config::{SystemConfig, VmSpec};
use cg_core::experiments::io::{run_netpipe_fastpath, IoPathMode};
use cg_core::system::System;
use cg_core::Obs;
use cg_host::DeviceKind;
use cg_sim::{FaultPlan, SimDuration};
use cg_workloads::iozone::Iozone;
use cg_workloads::kernel::GuestKernel;
use cg_workloads::netpipe::Netpipe;
use cg_workloads::EchoPeer;

fn gapped_config(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.seed = seed;
    c.rmm = cg_rmm::RmmConfig::core_gapped();
    c.num_host_cores = 1;
    c.machine.num_cores = 4;
    c
}

/// Runs NetPIPE over an SR-IOV VF (with direct interrupt delivery, so
/// the completion side is also exit-free) for `reps` round trips and
/// returns `(exits_total, sriov_tx)`.
fn sriov_netpipe_exits(reps: u32, seed: u64) -> (u64, u64) {
    let mut config = gapped_config(seed);
    config.rmm = cg_rmm::RmmConfig::core_gapped_direct_delivery();
    let mut system = System::new(config.clone());
    let app = Netpipe::new(vec![1500], reps, 0);
    let guest = GuestKernel::new(1, config.host.guest_hz, Box::new(app));
    let spec = VmSpec::core_gapped(1).with_device(DeviceKind::SriovNic);
    let peer = EchoPeer::new(SimDuration::micros(3));
    let vm = system
        .add_vm(spec, Box::new(guest), Some(Box::new(peer)))
        .expect("netpipe VM");
    assert!(system.run_until_done(SimDuration::secs(120)));
    let tx = system.metrics().counters.get("net.sriov_tx");
    (system.vm_report(vm).exits_total, tx)
}

/// Regression: the SR-IOV VF data path must never take a VMM exit —
/// the REC exit count is independent of how many messages the guest
/// pushes through the VF.
#[test]
fn sriov_data_path_takes_no_exits() {
    let (exits_short, tx_short) = sriov_netpipe_exits(10, 9);
    let (exits_long, tx_long) = sriov_netpipe_exits(40, 9);
    assert!(tx_long > tx_short, "VF tx must scale with messages");
    assert_eq!(
        exits_short, exits_long,
        "REC exits grew with SR-IOV message count: {exits_short} -> {exits_long}"
    );
}

/// The fast path's descriptor publish must likewise stay exit-free:
/// quadrupling the round trips adds no REC exits.
#[test]
fn fastpath_publish_takes_no_exits() {
    let short = run_netpipe_fastpath(IoPathMode::Fastpath, &[1500], 10, 9, &Obs::disabled());
    let long = run_netpipe_fastpath(IoPathMode::Fastpath, &[1500], 40, 9, &Obs::disabled());
    assert!(long.stats.kicks > short.stats.kicks);
    assert_eq!(short.stats.exits_total, long.stats.exits_total);
}

/// A hostile host drops a third of the delegated completion interrupts
/// after the used-ring post. The I/O watchdog's rescan must spot the
/// stranded completions and re-announce them: the workload still
/// finishes, and the recovery counter proves the watchdog (not luck)
/// healed it.
#[test]
fn io_watchdog_heals_dropped_completion_irqs() {
    let run = || {
        let mut config = gapped_config(13);
        config.fault = FaultPlan::completion_irq_loss(0.33);
        let mut system = System::new(config.clone());
        let app = Iozone::new(vec![(4096, false, 40), (65536, true, 20)], 0);
        let guest = GuestKernel::new(1, config.host.guest_hz, Box::new(app));
        let spec = VmSpec::core_gapped(1)
            .with_device(DeviceKind::VirtioBlk)
            .with_io_fastpath();
        let vm = system.add_vm(spec, Box::new(guest), None).expect("vm");
        assert!(
            system.run_until_done(SimDuration::secs(600)),
            "dropped completion irqs must not wedge the guest"
        );
        let c = &system.metrics().counters;
        (
            c.get("fault.completion_irq_dropped"),
            c.get("io.watchdog_recovered"),
            c.get("io.watchdog_kicks"),
            system.vm_report(vm).exits_total,
        )
    };
    let (dropped, recovered, kicks, exits) = run();
    assert!(dropped > 0, "injector must bite");
    assert!(
        recovered > 0,
        "the I/O watchdog rescan must re-announce stranded completions"
    );
    // Regression for the poll/suspend race: a kick raised while the
    // I/O thread is tearing down must be caught by the re-check after
    // re-arming notifications, never left for the watchdog's grace
    // period. Only the *completion* side may need the watchdog here.
    assert_eq!(
        kicks, 0,
        "suspend must re-check for freshly published work; the watchdog \
         grace period is not an acceptable kick-delivery latency"
    );
    assert_eq!(
        (dropped, recovered, kicks, exits),
        run(),
        "same seed + same plan must replay identically"
    );
}

/// Without the fault, the same workload never needs the watchdog.
#[test]
fn io_watchdog_is_quiet_on_clean_runs() {
    let config = gapped_config(13);
    let mut system = System::new(config.clone());
    let app = Iozone::new(vec![(4096, false, 40)], 0);
    let guest = GuestKernel::new(1, config.host.guest_hz, Box::new(app));
    let spec = VmSpec::core_gapped(1)
        .with_device(DeviceKind::VirtioBlk)
        .with_io_fastpath();
    system.add_vm(spec, Box::new(guest), None).expect("vm");
    assert!(system.run_until_done(SimDuration::secs(600)));
    let c = &system.metrics().counters;
    assert_eq!(c.get("io.watchdog_recovered"), 0);
    assert_eq!(c.get("fault.completion_irq_dropped"), 0);
}

/// Same seed + same config ⇒ byte-identical metrics fingerprint with
/// the I/O-plane thread scheduled (faulty or clean).
#[test]
fn fastpath_fingerprint_is_deterministic() {
    let run = |seed: u64, p: f64| {
        let mut config = gapped_config(seed);
        if p > 0.0 {
            config.fault = FaultPlan::completion_irq_loss(p);
        }
        let mut system = System::new(config.clone());
        let app = Iozone::new(vec![(4096, false, 20)], 0);
        let guest = GuestKernel::new(1, config.host.guest_hz, Box::new(app));
        let spec = VmSpec::core_gapped(1)
            .with_device(DeviceKind::VirtioBlk)
            .with_io_fastpath();
        system.add_vm(spec, Box::new(guest), None).expect("vm");
        assert!(system.run_until_done(SimDuration::secs(600)));
        system.metrics().fingerprint()
    };
    assert_eq!(run(21, 0.0), run(21, 0.0));
    assert_eq!(run(21, 0.25), run(21, 0.25));
    // Clean runs draw no randomness, so the seed only bites once the
    // injector does.
    assert_ne!(run(21, 0.25), run(22, 0.25), "seed must matter");
}
