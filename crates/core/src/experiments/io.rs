//! The I/O experiments: NetPIPE (fig. 8) and IOzone (fig. 9).

use std::collections::BTreeMap;

use cg_host::DeviceKind;
use cg_sim::SimDuration;
use cg_workloads::iozone::Iozone;
use cg_workloads::kernel::GuestKernel;
use cg_workloads::netpipe::Netpipe;
use cg_workloads::EchoPeer;

use crate::config::{SystemConfig, VmSpec};
use crate::obs::Obs;
use crate::system::System;

/// A fig. 8 configuration: device backend × execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetpipeConfig {
    /// `true` for SR-IOV VF passthrough, `false` for emulated virtio.
    pub sriov: bool,
    /// `true` for a core-gapped CVM, `false` for the shared-core
    /// baseline.
    pub core_gapped: bool,
    /// Enable the direct device-interrupt delivery extension (§5.3) —
    /// core-gapped + SR-IOV only.
    pub direct_delivery: bool,
}

impl NetpipeConfig {
    /// All four fig. 8 series.
    pub const ALL: [NetpipeConfig; 4] = [
        NetpipeConfig {
            sriov: false,
            core_gapped: false,
            direct_delivery: false,
        },
        NetpipeConfig {
            sriov: false,
            core_gapped: true,
            direct_delivery: false,
        },
        NetpipeConfig {
            sriov: true,
            core_gapped: false,
            direct_delivery: false,
        },
        NetpipeConfig {
            sriov: true,
            core_gapped: true,
            direct_delivery: false,
        },
    ];

    /// The §5.3 extension configuration: SR-IOV, core-gapped, with
    /// direct interrupt delivery.
    pub const DIRECT: NetpipeConfig = NetpipeConfig {
        sriov: true,
        core_gapped: true,
        direct_delivery: true,
    };

    /// Legend label.
    pub fn label(self) -> String {
        format!(
            "{} / {}{}",
            if self.sriov { "SR-IOV" } else { "virtio" },
            if self.core_gapped {
                "core-gapped"
            } else {
                "shared-core"
            },
            if self.direct_delivery {
                " + direct irq"
            } else {
                ""
            }
        )
    }
}

/// One NetPIPE data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetpipePoint {
    /// Median round-trip time in microseconds.
    pub rtt_us: f64,
    /// Throughput in megabits per second (`2 · size · 8 / rtt`).
    pub mbps: f64,
}

fn base_config(core_gapped: bool, seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.seed = seed;
    if core_gapped {
        c.rmm = cg_rmm::RmmConfig::core_gapped();
        c.num_host_cores = 1;
    } else {
        c.rmm = cg_rmm::RmmConfig::shared_core();
        c.num_host_cores = 2;
    }
    c.machine.num_cores = 4;
    c
}

/// Runs NetPIPE over `sizes`, returning one point per message size.
///
/// Records through the observability bundle `obs`.
pub fn run_netpipe(
    config: NetpipeConfig,
    sizes: &[u64],
    reps: u32,
    seed: u64,
    obs: &Obs,
) -> BTreeMap<u64, NetpipePoint> {
    let mut sys_config = base_config(config.core_gapped, seed);
    if config.direct_delivery {
        assert!(
            config.core_gapped && config.sriov,
            "direct delivery is a core-gapped SR-IOV extension"
        );
        sys_config.rmm = cg_rmm::RmmConfig::core_gapped_direct_delivery();
    }
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let app = Netpipe::new(sizes.to_vec(), reps, 0);
    let guest = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(app));
    let device = if config.sriov {
        DeviceKind::SriovNic
    } else {
        DeviceKind::VirtioNet
    };
    let spec = if config.core_gapped {
        VmSpec::core_gapped(1)
    } else {
        VmSpec::shared_core(1)
    }
    .with_device(device);
    // The peer echoes after a small fixed service time.
    let peer = EchoPeer::new(SimDuration::micros(3));
    let vm = system
        .add_vm(spec, Box::new(guest), Some(Box::new(peer)))
        .expect("netpipe VM");
    system.run_until_done(SimDuration::secs(120));
    let report = system.vm_report(vm);
    let mut out = BTreeMap::new();
    for &size in sizes {
        if let Some(samples) = report.stats.sample(&format!("rtt_us_{size}")) {
            let mut s = samples.clone();
            let rtt = s.percentile(50.0);
            out.insert(
                size,
                NetpipePoint {
                    rtt_us: rtt,
                    mbps: 2.0 * size as f64 * 8.0 / rtt,
                },
            );
        }
    }
    out
}

/// One IOzone data point: throughput in MiB/s.
pub type IozonePoint = f64;

/// Runs IOzone sync reads and writes over `records`, returning
/// `(record, is_write) → MiB/s`.
///
/// Records through the observability bundle `obs`.
pub fn run_iozone(
    core_gapped: bool,
    records: &[u64],
    reps: u32,
    seed: u64,
    obs: &Obs,
) -> BTreeMap<(u64, bool), IozonePoint> {
    let sys_config = base_config(core_gapped, seed);
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let mut phases = Vec::new();
    for &r in records {
        phases.push((r, false, reps));
        phases.push((r, true, reps));
    }
    let app = Iozone::new(phases, 0);
    let guest = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(app));
    let spec = if core_gapped {
        VmSpec::core_gapped(1)
    } else {
        VmSpec::shared_core(1)
    }
    .with_device(DeviceKind::VirtioBlk);
    let vm = system
        .add_vm(spec, Box::new(guest), None)
        .expect("iozone VM");
    system.run_until_done(SimDuration::secs(600));
    let report = system.vm_report(vm);
    let mut out = BTreeMap::new();
    for &r in records {
        for is_write in [false, true] {
            let dir = if is_write { "write" } else { "read" };
            if let Some(samples) = report.stats.sample(&format!("io_us_{dir}_{r}")) {
                let mean_us = samples.mean();
                if mean_us > 0.0 {
                    out.insert((r, is_write), r as f64 / (1 << 20) as f64 / (mean_us / 1e6));
                }
            }
        }
    }
    out
}

// ================= shared-memory fast path =================

/// Which virtio data path a fast-path experiment drives (all core
/// gapped; SR-IOV is orthogonal and keeps its own direct path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPathMode {
    /// Legacy exit-per-kick virtio: every submission is a hostcall exit
    /// serviced by the VMM I/O thread.
    Legacy,
    /// Shared-memory virtqueues with EVENT_IDX suppression: descriptors
    /// publish without exiting, the I/O-plane thread drives backends,
    /// completions inject through the RMM.
    Fastpath,
    /// Fast path with EVENT_IDX negotiated off (the suppression
    /// ablation): every publish kicks, every completion interrupts.
    FastpathNoSuppression,
}

impl IoPathMode {
    /// All three io_fastpath sweep series.
    pub const ALL: [IoPathMode; 3] = [
        IoPathMode::Legacy,
        IoPathMode::Fastpath,
        IoPathMode::FastpathNoSuppression,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            IoPathMode::Legacy => "exit-per-kick",
            IoPathMode::Fastpath => "fastpath",
            IoPathMode::FastpathNoSuppression => "fastpath-no-evidx",
        }
    }

    /// Applies this mode's fast-path switches to a VM spec.
    pub fn apply_spec(self, spec: VmSpec) -> VmSpec {
        match self {
            IoPathMode::Legacy => spec,
            IoPathMode::Fastpath => spec.with_io_fastpath(),
            IoPathMode::FastpathNoSuppression => spec.with_io_fastpath().without_event_idx(),
        }
    }
}

/// One fast-path sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastpathPoint {
    /// Median round-trip (NetPIPE) or request (IOzone) time, µs.
    pub p50_us: f64,
    /// Tail (99th percentile) time, µs.
    pub p99_us: f64,
    /// Throughput: Mbps for NetPIPE, MiB/s for IOzone.
    pub throughput: f64,
}

/// The notification counters a fast-path run accumulates — what the
/// suppression ablation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastpathStats {
    /// Guest kicks that rang the I/O doorbell.
    pub kicks: u64,
    /// Guest kicks EVENT_IDX suppressed.
    pub kicks_suppressed: u64,
    /// Delegated completion interrupts raised.
    pub irqs: u64,
    /// Completion interrupts EVENT_IDX coalesced away.
    pub irqs_suppressed: u64,
    /// Total REC exits over the run (RMM-side count).
    pub exits_total: u64,
    /// Deterministic run fingerprint (system metrics fold).
    pub fingerprint: u64,
}

/// A fast-path run: per-size points plus the notification counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FastpathRun {
    /// size (or record) → point.
    pub points: BTreeMap<u64, FastpathPoint>,
    /// Run-wide notification counters.
    pub stats: FastpathStats,
    /// Full counter snapshot (for plane-grouped report export).
    pub counters: cg_sim::Counters,
}

pub(crate) fn fastpath_stats(system: &System, exits_total: u64) -> FastpathStats {
    let c = &system.metrics().counters;
    FastpathStats {
        kicks: c.get("virtio.kicks"),
        kicks_suppressed: c.get("virtio.kicks_suppressed"),
        irqs: c.get("virtio.irqs"),
        irqs_suppressed: c.get("virtio.irqs_suppressed"),
        exits_total,
        fingerprint: system.metrics().fingerprint(),
    }
}

/// Runs NetPIPE over a virtio NIC on the chosen data path, returning
/// per-size p50/p99 round trips and throughput plus notification
/// counters.
///
/// Records through the observability bundle `obs`.
pub fn run_netpipe_fastpath(
    mode: IoPathMode,
    sizes: &[u64],
    reps: u32,
    seed: u64,
    obs: &Obs,
) -> FastpathRun {
    let sys_config = base_config(true, seed);
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let app = Netpipe::new(sizes.to_vec(), reps, 0);
    let guest = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(app));
    let spec = mode.apply_spec(VmSpec::core_gapped(1).with_device(DeviceKind::VirtioNet));
    let peer = EchoPeer::new(SimDuration::micros(3));
    let vm = system
        .add_vm(spec, Box::new(guest), Some(Box::new(peer)))
        .expect("netpipe VM");
    assert!(
        system.run_until_done(SimDuration::secs(120)),
        "netpipe ({}) did not complete",
        mode.label()
    );
    let report = system.vm_report(vm);
    let mut points = BTreeMap::new();
    for &size in sizes {
        if let Some(samples) = report.stats.sample(&format!("rtt_us_{size}")) {
            let mut s = samples.clone();
            let p50 = s.percentile(50.0);
            let p99 = s.percentile(99.0);
            points.insert(
                size,
                FastpathPoint {
                    p50_us: p50,
                    p99_us: p99,
                    throughput: 2.0 * size as f64 * 8.0 / p50,
                },
            );
        }
    }
    FastpathRun {
        points,
        stats: fastpath_stats(&system, report.exits_total),
        counters: system.metrics().counters.clone(),
    }
}

/// Runs IOzone sync reads on the chosen data path, returning per-record
/// p50/p99 request times and MiB/s plus notification counters.
///
/// Records through the observability bundle `obs`.
pub fn run_iozone_fastpath(
    mode: IoPathMode,
    records: &[u64],
    reps: u32,
    seed: u64,
    obs: &Obs,
) -> FastpathRun {
    let sys_config = base_config(true, seed);
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let phases: Vec<(u64, bool, u32)> = records.iter().map(|&r| (r, false, reps)).collect();
    let app = Iozone::new(phases, 0);
    let guest = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(app));
    let spec = mode.apply_spec(VmSpec::core_gapped(1).with_device(DeviceKind::VirtioBlk));
    let vm = system
        .add_vm(spec, Box::new(guest), None)
        .expect("iozone VM");
    assert!(
        system.run_until_done(SimDuration::secs(600)),
        "iozone ({}) did not complete",
        mode.label()
    );
    let report = system.vm_report(vm);
    let mut points = BTreeMap::new();
    for &r in records {
        if let Some(samples) = report.stats.sample(&format!("io_us_read_{r}")) {
            let mut s = samples.clone();
            let p50 = s.percentile(50.0);
            let p99 = s.percentile(99.0);
            if p50 > 0.0 {
                points.insert(
                    r,
                    FastpathPoint {
                        p50_us: p50,
                        p99_us: p99,
                        throughput: r as f64 / (1 << 20) as f64 / (p50 / 1e6),
                    },
                );
            }
        }
    }
    FastpathRun {
        points,
        stats: fastpath_stats(&system, report.exits_total),
        counters: system.metrics().counters.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netpipe_completes_on_all_configs() {
        for config in NetpipeConfig::ALL {
            let points = run_netpipe(config, &[1024, 65536], 3, 5, &Obs::disabled());
            assert_eq!(points.len(), 2, "{}", config.label());
            assert!(points[&1024].rtt_us > 0.0);
            assert!(points[&65536].mbps > points[&1024].mbps * 0.5);
        }
    }

    #[test]
    fn virtio_gapped_latency_is_much_higher_than_shared() {
        let shared = run_netpipe(
            NetpipeConfig {
                sriov: false,
                core_gapped: false,
                direct_delivery: false,
            },
            &[1500],
            5,
            5,
            &Obs::disabled(),
        );
        let gapped = run_netpipe(
            NetpipeConfig {
                sriov: false,
                core_gapped: true,
                direct_delivery: false,
            },
            &[1500],
            5,
            5,
            &Obs::disabled(),
        );
        // Paper fig. 8: up to 2× latency for virtio under core gapping.
        assert!(
            gapped[&1500].rtt_us > 1.4 * shared[&1500].rtt_us,
            "gapped {} vs shared {}",
            gapped[&1500].rtt_us,
            shared[&1500].rtt_us
        );
    }

    #[test]
    fn sriov_closes_most_of_the_gap() {
        let shared = run_netpipe(
            NetpipeConfig {
                sriov: true,
                core_gapped: false,
                direct_delivery: false,
            },
            &[1500],
            5,
            5,
            &Obs::disabled(),
        );
        let gapped = run_netpipe(
            NetpipeConfig {
                sriov: true,
                core_gapped: true,
                direct_delivery: false,
            },
            &[1500],
            5,
            5,
            &Obs::disabled(),
        );
        // Paper fig. 8: SR-IOV latency within 10–20 µs of the baseline.
        let delta = gapped[&1500].rtt_us - shared[&1500].rtt_us;
        assert!(
            (0.0..=25.0).contains(&delta),
            "delta {delta} µs (gapped {}, shared {})",
            gapped[&1500].rtt_us,
            shared[&1500].rtt_us
        );
    }

    #[test]
    fn direct_delivery_closes_the_interrupt_gap() {
        let shared = run_netpipe(
            NetpipeConfig {
                sriov: true,
                core_gapped: false,
                direct_delivery: false,
            },
            &[1500],
            5,
            5,
            &Obs::disabled(),
        );
        let direct = run_netpipe(NetpipeConfig::DIRECT, &[1500], 5, 5, &Obs::disabled());
        // With local injection the gapped CVM matches (or beats) the
        // shared-core baseline on SR-IOV latency.
        assert!(
            direct[&1500].rtt_us <= shared[&1500].rtt_us + 3.0,
            "direct {} vs shared {}",
            direct[&1500].rtt_us,
            shared[&1500].rtt_us
        );
    }

    #[test]
    fn fastpath_beats_exit_per_kick_on_small_messages() {
        let sizes = [64u64, 1024, 65536];
        let legacy = run_netpipe_fastpath(IoPathMode::Legacy, &sizes, 5, 5, &Obs::disabled());
        let fast = run_netpipe_fastpath(IoPathMode::Fastpath, &sizes, 5, 5, &Obs::disabled());
        // Small messages are notification-dominated: the shared-memory
        // path must win outright.
        assert!(
            fast.points[&64].p50_us < legacy.points[&64].p50_us,
            "fast {} vs legacy {} at 64 B",
            fast.points[&64].p50_us,
            legacy.points[&64].p50_us
        );
        // Fig. 8 shape: the relative gap narrows as the wire time
        // swamps the per-message overhead.
        let gap_small = legacy.points[&64].p50_us / fast.points[&64].p50_us;
        let gap_large = legacy.points[&65536].p50_us / fast.points[&65536].p50_us;
        assert!(
            gap_small > gap_large,
            "gap should narrow with size: small {gap_small:.3} vs large {gap_large:.3}"
        );
    }

    #[test]
    fn fastpath_takes_fewer_exits_than_legacy() {
        let legacy = run_netpipe_fastpath(IoPathMode::Legacy, &[1024], 20, 5, &Obs::disabled());
        let fast = run_netpipe_fastpath(IoPathMode::Fastpath, &[1024], 20, 5, &Obs::disabled());
        assert!(
            fast.stats.exits_total < legacy.stats.exits_total / 2,
            "fast {} exits vs legacy {}",
            fast.stats.exits_total,
            legacy.stats.exits_total
        );
        assert!(fast.stats.kicks > 0, "fast path rang no doorbells");
    }

    #[test]
    fn iozone_fastpath_runs_on_blk() {
        let fast = run_iozone_fastpath(IoPathMode::Fastpath, &[4096], 5, 5, &Obs::disabled());
        assert!(fast.points[&4096].p50_us > 0.0);
        assert!(fast.stats.kicks > 0);
        assert!(fast.stats.irqs > 0);
    }

    #[test]
    fn fastpath_run_is_deterministic() {
        let a = run_netpipe_fastpath(IoPathMode::Fastpath, &[1024], 5, 7, &Obs::disabled());
        let b = run_netpipe_fastpath(IoPathMode::Fastpath, &[1024], 5, 7, &Obs::disabled());
        assert_eq!(a, b);
        assert_eq!(a.stats.fingerprint, b.stats.fingerprint);
    }

    #[test]
    fn iozone_parity_at_large_records_only() {
        let shared = run_iozone(false, &[4096, 16 << 20], 3, 5, &Obs::disabled());
        let gapped = run_iozone(true, &[4096, 16 << 20], 3, 5, &Obs::disabled());
        let small_ratio = gapped[&(4096, false)] / shared[&(4096, false)];
        let large_ratio = gapped[&(16 << 20, false)] / shared[&(16 << 20, false)];
        // Paper fig. 9: gapped loses at small records, parity ≥ 10 MiB.
        assert!(small_ratio < 0.75, "small-record ratio {small_ratio}");
        assert!(large_ratio > 0.9, "large-record ratio {large_ratio}");
    }
}
