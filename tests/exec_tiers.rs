//! The execution engine's two tiers must agree.
//!
//! A core-gapped vCPU computing back to back runs its chunks as one
//! merged segment (the fast tier) whenever a `run_until` horizon lets it;
//! everything else runs op by op. Stepping a scenario in 1 µs
//! `run_until` slices leaves no room for a second chunk, so it runs
//! wholly on the per-op tier: every observable result of the stepped run
//! must equal that of one long run.
//!
//! The scenarios mix what can cut a merged run short or race it: vIPIs
//! from an IPI-bench sender, delegated or host-emulated timer ticks,
//! console writes and their completion interrupts (injected directly or
//! through the host), SR-IOV echo traffic delivered to the running vCPU
//! by NAPI polling, time-series samples, host kicks and `resize_vm`.
//! Chunk lengths are round numbers and the warmth penalties can be zero,
//! so chunk boundaries sit on a grid; kicks at periods of arbitrary
//! nanoseconds drift across it and land exactly on boundaries, some
//! queued before the ending chunk started and some after.

use cg_core::{Obs, System, SystemConfig, VmId, VmSpec};
use cg_host::DeviceKind;
use cg_rmm::RmmConfig;
use cg_sim::{SimDuration, SimTime};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::ipibench::IpiBench;
use cg_workloads::{AppLogic, EchoPeer, GuestIrq, GuestKernel, GuestOp, NetPeer, WorkloadStats};
use proptest::prelude::*;

/// CoreMark on every vCPU, except that vCPU 0 can also send a packet
/// every `send_period` and the last vCPU can be an IPI-bench sender
/// whose vIPIs rotate over the computing vCPUs.
#[derive(Debug)]
struct MixApp {
    coremark: CoremarkPro,
    ipi: Option<IpiBench>,
    vcpus: u32,
    send_period: Option<SimDuration>,
    next_send: SimTime,
    sends: u64,
    received: u64,
    ipi_sends: u32,
}

impl MixApp {
    fn pinger(&self, vcpu: u32) -> bool {
        self.ipi.is_some() && vcpu == self.vcpus - 1
    }
}

impl AppLogic for MixApp {
    fn next_op(&mut self, vcpu: u32, now: SimTime) -> GuestOp {
        if self.pinger(vcpu) {
            let ipi = self.ipi.as_mut().expect("pinger has a bench");
            return match ipi.next_op(0, now) {
                GuestOp::SendIpi { sgi, .. } => {
                    self.ipi_sends += 1;
                    let target = self.ipi_sends % (self.vcpus - 1);
                    GuestOp::SendIpi { target, sgi }
                }
                op => op,
            };
        }
        if let Some(period) = self.send_period {
            if vcpu == 0 && now >= self.next_send {
                self.next_send = now + period;
                self.sends += 1;
                return GuestOp::NetSend {
                    device: 0,
                    bytes: 256,
                    flow: self.sends,
                };
            }
        }
        self.coremark.next_op(vcpu, now)
    }

    fn on_irq(&mut self, vcpu: u32, irq: GuestIrq, now: SimTime) {
        if let GuestIrq::NetRx { .. } = irq {
            self.received += 1;
        }
        if let Some(ipi) = &mut self.ipi {
            ipi.on_irq(vcpu, irq, now);
        }
    }

    fn stats(&self) -> WorkloadStats {
        let mut stats = self.coremark.stats();
        if let Some(ipi) = &self.ipi {
            for (name, n) in ipi.stats().counters.iter() {
                stats.counters.add(name, n);
            }
        }
        stats.counters.add("mix.sends", self.sends);
        stats.counters.add("mix.received", self.received);
        stats
    }

    fn peek_compute(&self, vcpu: u32, now: SimTime) -> Option<(SimDuration, SimTime)> {
        if self.pinger(vcpu) {
            return None;
        }
        let (work, until) = self.coremark.peek_compute(vcpu, now)?;
        match self.send_period {
            Some(_) if vcpu == 0 => (now < self.next_send).then_some((work, self.next_send)),
            _ => Some((work, until)),
        }
    }

    fn commit_compute(&mut self, vcpu: u32, n: u64) {
        self.coremark.commit_compute(vcpu, n);
    }
}

/// One generated scenario.
#[derive(Debug, Clone)]
struct Scenario {
    vcpus: u32,
    unit_ns: u64,
    warm_penalties: bool,
    delegated_ticks: bool,
    direct_delivery: bool,
    console_ms: Option<u64>,
    ipi_period_us: Option<u64>,
    sriov_period_us: Option<u64>,
    sample_us: Option<u64>,
    /// Host kicks of vCPU 0 at this period (`System::harass`).
    harass_ns: Option<u64>,
    /// `resize_vm(vm, n)` at this many ms.
    resize: Option<(u64, u32)>,
    /// A second, plain CoreMark VM with this unit.
    second_vm_unit_us: Option<u64>,
    cores: u16,
    run_ms: u64,
}

/// Everything the two tiers must agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    now: SimTime,
    fingerprint: u64,
    reports: Vec<String>,
    timeseries: Vec<(u64, Vec<u64>)>,
    chrome_trace: String,
}

fn build(sc: &Scenario) -> (System, Vec<VmId>, Obs) {
    let mut cfg = SystemConfig::small();
    cfg.machine.num_cores = sc.cores;
    cfg.rmm = match (sc.delegated_ticks, sc.direct_delivery) {
        (true, true) => RmmConfig::core_gapped_direct_delivery(),
        (true, false) => RmmConfig::core_gapped(),
        (false, direct) => RmmConfig {
            direct_device_delivery: direct,
            ..RmmConfig::core_gapped_no_delegation()
        },
    };
    if !sc.warm_penalties {
        cfg.machine.l1_penalty = 0.0;
        cfg.machine.tlb_penalty = 0.0;
        cfg.machine.bp_penalty = 0.0;
    }
    let mut system = System::new(cfg);
    let obs = match sc.sample_us {
        Some(us) => Obs::full(SimDuration::micros(us)),
        None => Obs::disabled(),
    };
    system.attach_obs(&obs);
    let unit = SimDuration::nanos(sc.unit_ns);
    let app = MixApp {
        coremark: CoremarkPro::new(sc.vcpus, unit),
        ipi: sc
            .ipi_period_us
            .map(|us| IpiBench::new(SimDuration::micros(us), u64::MAX)),
        vcpus: sc.vcpus,
        send_period: sc.sriov_period_us.map(SimDuration::micros),
        next_send: SimTime::ZERO,
        sends: 0,
        received: 0,
        ipi_sends: 0,
    };
    let mut guest = GuestKernel::new(sc.vcpus, 250, Box::new(app));
    if let Some(ms) = sc.console_ms {
        guest = guest.with_console_writes(SimDuration::millis(ms));
    }
    // Device 0 takes the sends (SR-IOV, so replies are NAPI-polled by
    // the running vCPU 0) and the console's completion interrupts.
    let mut spec = VmSpec::core_gapped(sc.vcpus);
    let mut peer: Option<Box<dyn NetPeer>> = None;
    if sc.sriov_period_us.is_some() {
        spec = spec.with_device(DeviceKind::SriovNic);
        peer = Some(Box::new(EchoPeer::new(SimDuration::micros(20))));
    } else if sc.console_ms.is_some() {
        spec = spec.with_device(DeviceKind::VirtioNet);
    }
    let mut vms = vec![system.add_vm(spec, Box::new(guest), peer).unwrap()];
    if let Some(ns) = sc.harass_ns {
        system.harass(vms[0], 0, SimDuration::nanos(ns));
    }
    if let Some(us) = sc.second_vm_unit_us {
        let cm = CoremarkPro::new(2, SimDuration::micros(us));
        let guest = GuestKernel::new(2, 250, Box::new(cm));
        vms.push(
            system
                .add_vm(VmSpec::core_gapped(2), Box::new(guest), None)
                .unwrap(),
        );
    }
    (system, vms, obs)
}

fn observe(system: &System, vms: &[VmId], obs: &Obs) -> Observed {
    Observed {
        now: system.now(),
        fingerprint: system.metrics().fingerprint(),
        reports: vms
            .iter()
            .map(|&vm| format!("{:?}", system.vm_report(vm)))
            .collect(),
        timeseries: obs
            .timeseries
            .rows()
            .into_iter()
            .map(|(t, row)| (t, row.iter().map(|v| v.to_bits()).collect()))
            .collect(),
        chrome_trace: obs.profiler.chrome_trace(),
    }
}

/// Runs the scenario to its end in one `run_until` call (two around a
/// resize), letting the fast tier merge.
fn run_long(sc: &Scenario) -> Observed {
    let (mut system, vms, obs) = build(sc);
    let end = SimTime::ZERO + SimDuration::millis(sc.run_ms);
    if let Some((at_ms, n)) = sc.resize {
        system.run_until(SimTime::ZERO + SimDuration::millis(at_ms));
        let _ = system.resize_vm(vms[0], n);
    }
    system.run_until(end);
    observe(&system, &vms, &obs)
}

/// Runs the scenario in 1 µs slices: no room for a merged run.
fn run_stepped(sc: &Scenario) -> Observed {
    let (mut system, vms, obs) = build(sc);
    let step = SimDuration::micros(1);
    let resize_at = sc
        .resize
        .map(|(at_ms, n)| (SimTime::ZERO + SimDuration::millis(at_ms), n));
    let end = SimTime::ZERO + SimDuration::millis(sc.run_ms);
    while system.now() < end {
        system.run_until(system.now() + step);
        if let Some((at, n)) = resize_at {
            if system.now() == at {
                let _ = system.resize_vm(vms[0], n);
            }
        }
    }
    observe(&system, &vms, &obs)
}

fn assert_tiers_agree(sc: &Scenario) -> Result<(), TestCaseError> {
    let long = run_long(sc);
    let stepped = run_stepped(sc);
    prop_assert_eq!(&long.now, &stepped.now);
    prop_assert_eq!(long.fingerprint, stepped.fingerprint, "scenario {:?}", sc);
    prop_assert_eq!(&long.reports, &stepped.reports, "scenario {:?}", sc);
    prop_assert_eq!(&long.timeseries, &stepped.timeseries, "scenario {:?}", sc);
    prop_assert!(
        long.chrome_trace == stepped.chrome_trace,
        "spans differ: {:?}",
        sc
    );
    Ok(())
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (2u32..6, 0usize..8, 0u8..2, 0u8..2, 0u8..2),
        (0usize..4, 0usize..5, 0usize..4, 0usize..3, 0u64..40_000),
        (0usize..4, 0usize..3, 6u64..24),
    )
        .prop_map(
            |(
                (vcpus, unit, warm, delegated, direct),
                (console, ipi, sriov, sample, harass),
                (resize, second, run_ms),
            )| {
                let resize = [None, None, Some((3, 1)), Some((4, vcpus - 1))][resize];
                Scenario {
                    vcpus,
                    // Chunks shorter than an IPI's flight time make
                    // interrupts queued before a chunk's start land on
                    // its end; none is short enough to merge in 1 µs.
                    unit_ns: [600, 700, 800, 1_000, 2_000, 50_000, 100_000, 125_000][unit],
                    warm_penalties: warm == 1,
                    delegated_ticks: delegated == 1,
                    direct_delivery: direct == 1,
                    console_ms: [None, Some(1), Some(2), Some(5)][console],
                    ipi_period_us: [None, Some(100), Some(200), Some(250), Some(500)][ipi],
                    sriov_period_us: [None, None, Some(300), Some(1_000)][sriov],
                    sample_us: [None, Some(250), Some(1_000)][sample],
                    // Kick periods of arbitrary nanoseconds drift across
                    // the chunk grid, so some kicks land on boundaries.
                    harass_ns: (harass >= 10_000).then(|| harass - 5_000),
                    resize,
                    second_vm_unit_us: [None, None, Some(100)][second],
                    cores: 12,
                    run_ms,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A long run and a 1 µs-stepped run of the same scenario give the
    /// same fingerprint, VM reports (guest stats, exits, timing), time
    /// series and spans.
    #[test]
    fn merged_and_per_op_tiers_agree(sc in scenario()) {
        assert_tiers_agree(&sc)?;
    }
}

/// The fast tier does merge: a plain CoreMark run pops far fewer
/// `SegmentEnd` events in one long run than in 1 µs steps.
#[test]
fn long_runs_merge_compute_segments() {
    let sc = Scenario {
        vcpus: 3,
        unit_ns: 100_000,
        warm_penalties: true,
        delegated_ticks: true,
        direct_delivery: false,
        console_ms: None,
        ipi_period_us: None,
        sriov_period_us: None,
        sample_us: None,
        harass_ns: None,
        resize: None,
        second_vm_unit_us: None,
        cores: 8,
        run_ms: 20,
    };
    let segment_ends = |stepped: bool| {
        let (mut system, _, _) = build(&sc);
        system.configure_trace(cg_core::TraceOptions::new().structured_capture());
        let end = SimTime::ZERO + SimDuration::millis(sc.run_ms);
        if stepped {
            while system.now() < end {
                system.run_until(system.now() + SimDuration::micros(1));
            }
        } else {
            system.run_until(end);
        }
        system
            .structured_records()
            .iter()
            .filter(|r| r.kind == cg_sim::TraceKind::EventPop && r.detail.starts_with("SegmentEnd"))
            .count()
    };
    let (merged, per_op) = (segment_ends(false), segment_ends(true));
    assert!(
        merged * 4 < per_op,
        "{merged} merged vs {per_op} per-op SegmentEnd pops"
    );
    assert_tiers_agree(&sc).unwrap();
}

/// The shape of the `coremark_gapped` benchmark workload: a 63-vCPU
/// CoreMark CVM on a 64-core node for 200 ms, with console writes.
#[test]
#[ignore = "long: 200 ms of a 63-vCPU CVM stepped in 1 µs slices"]
fn tiers_agree_on_a_coremark_gapped_node() {
    let sc = Scenario {
        vcpus: 63,
        unit_ns: 100_000,
        warm_penalties: true,
        delegated_ticks: true,
        direct_delivery: false,
        console_ms: Some(70),
        ipi_period_us: None,
        sriov_period_us: None,
        sample_us: None,
        harass_ns: None,
        resize: None,
        second_vm_unit_us: None,
        cores: 64,
        run_ms: 200,
    };
    assert_tiers_agree(&sc).unwrap();
}
