//! Application benchmarks: Redis (table 5) and the kernel build
//! (fig. 10).

use cg_host::DeviceKind;
use cg_sim::{Histogram, SimDuration, SimTime};
use cg_workloads::kbuild::KernelBuild;
use cg_workloads::kernel::GuestKernel;
use cg_workloads::redis::{RedisCommand, RedisServer};
use cg_workloads::RedisClientPool;

use crate::config::{SystemConfig, VmSpec};
use crate::obs::Obs;
use crate::system::System;

/// One table-5 cell: throughput and latency percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedisResult {
    /// Throughput in thousands of requests per second.
    pub krps: f64,
    /// Mean request latency in milliseconds.
    pub mean_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
}

/// Paper table 5 values for `(command, core_gapped)`.
pub fn paper_redis(command: RedisCommand, core_gapped: bool) -> RedisResult {
    match (command, core_gapped) {
        (RedisCommand::Set, false) => RedisResult {
            krps: 51.7,
            mean_ms: 0.52,
            p95_ms: 0.60,
            p99_ms: 1.20,
        },
        (RedisCommand::Set, true) => RedisResult {
            krps: 56.2,
            mean_ms: 0.63,
            p95_ms: 0.97,
            p99_ms: 1.44,
        },
        (RedisCommand::Get, false) => RedisResult {
            krps: 48.8,
            mean_ms: 0.54,
            p95_ms: 0.64,
            p99_ms: 1.20,
        },
        (RedisCommand::Get, true) => RedisResult {
            krps: 55.3,
            mean_ms: 0.57,
            p95_ms: 0.78,
            p99_ms: 1.24,
        },
        (RedisCommand::Lrange100, false) => RedisResult {
            krps: 11.6,
            mean_ms: 1.51,
            p95_ms: 2.03,
            p99_ms: 2.38,
        },
        (RedisCommand::Lrange100, true) => RedisResult {
            krps: 14.5,
            mean_ms: 1.24,
            p95_ms: 1.56,
            p99_ms: 1.82,
        },
    }
}

/// Runs the redis-benchmark setup of table 5: 50 closed-loop clients,
/// 512-byte objects, SR-IOV networking, 16 physical cores (15 guest
/// vCPUs under core gapping).
///
/// Records through the observability bundle `obs` and also returns the
/// per-request latency histogram (µs), so table-5 reports can quote
/// measured p50/p95/p99/p99.9 rather than only the three paper
/// percentiles.
pub fn run_redis(
    command: RedisCommand,
    core_gapped: bool,
    requests: u64,
    seed: u64,
    obs: &Obs,
) -> (RedisResult, Histogram) {
    let mut sys_config = SystemConfig::paper_default();
    sys_config.seed = seed;
    let vcpus: u32;
    if core_gapped {
        sys_config.rmm = cg_rmm::RmmConfig::core_gapped();
        sys_config.num_host_cores = 1;
        sys_config.machine.num_cores = 17;
        vcpus = 15;
    } else {
        sys_config.rmm = cg_rmm::RmmConfig::shared_core();
        sys_config.num_host_cores = 16;
        sys_config.machine.num_cores = 17;
        vcpus = 16;
    }
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let app = RedisServer::new(command, 0);
    let guest = GuestKernel::new(vcpus, sys_config.host.guest_hz, Box::new(app));
    let spec = if core_gapped {
        VmSpec::core_gapped(vcpus)
    } else {
        VmSpec::shared_core(vcpus)
    }
    .with_device(DeviceKind::SriovNic);
    let pool = RedisClientPool::new(50, 512, requests);
    let vm = system
        .add_vm(spec, Box::new(guest), Some(Box::new(pool)))
        .expect("redis VM");
    let start = system.now();
    let done = system.run_until_peer_done(vm, SimDuration::secs(120));
    assert!(done, "redis benchmark did not complete");
    let elapsed = system.now().duration_since(start);
    let completed = system.peer_completed(vm);
    let samples = system.peer_samples(vm).expect("pool collects samples");
    let mut lat = samples["request_us"].clone();
    let hist: Histogram = lat.values().iter().copied().collect();
    let result = RedisResult {
        krps: completed as f64 / elapsed.as_secs_f64() / 1_000.0,
        mean_ms: lat.mean() / 1_000.0,
        p95_ms: lat.percentile(95.0) / 1_000.0,
        p99_ms: lat.percentile(99.0) / 1_000.0,
    };
    (result, hist)
}

/// As [`run_redis`], but over an emulated virtio NIC on the chosen data
/// path (always core-gapped), returning the table-5 cell plus the
/// fast-path notification counters. The 50-client pool keeps dozens of
/// requests in flight, so this is the workload where EVENT_IDX
/// suppression actually coalesces notifications (NetPIPE's ping-pong
/// never has more than one descriptor outstanding).
pub fn run_redis_virtio(
    command: RedisCommand,
    mode: crate::experiments::io::IoPathMode,
    requests: u64,
    seed: u64,
) -> (RedisResult, crate::experiments::io::FastpathStats) {
    let mut sys_config = SystemConfig::paper_default();
    sys_config.seed = seed;
    sys_config.rmm = cg_rmm::RmmConfig::core_gapped();
    sys_config.num_host_cores = 1;
    sys_config.machine.num_cores = 17;
    let vcpus = 15;
    let mut system = System::new(sys_config.clone());
    let app = RedisServer::new(command, 0);
    let guest = GuestKernel::new(vcpus, sys_config.host.guest_hz, Box::new(app));
    let spec = mode.apply_spec(VmSpec::core_gapped(vcpus).with_device(DeviceKind::VirtioNet));
    let pool = RedisClientPool::new(50, 512, requests);
    let vm = system
        .add_vm(spec, Box::new(guest), Some(Box::new(pool)))
        .expect("redis VM");
    let start = system.now();
    let done = system.run_until_peer_done(vm, SimDuration::secs(240));
    assert!(done, "redis ({}) did not complete", mode.label());
    let elapsed = system.now().duration_since(start);
    let completed = system.peer_completed(vm);
    let samples = system.peer_samples(vm).expect("pool collects samples");
    let mut lat = samples["request_us"].clone();
    let result = RedisResult {
        krps: completed as f64 / elapsed.as_secs_f64() / 1_000.0,
        mean_ms: lat.mean() / 1_000.0,
        p95_ms: lat.percentile(95.0) / 1_000.0,
        p99_ms: lat.percentile(99.0) / 1_000.0,
    };
    let report = system.vm_report(vm);
    let stats = crate::experiments::io::fastpath_stats(&system, report.exits_total);
    (result, stats)
}

/// Runs the parallel kernel build (fig. 10) on `total_cores` physical
/// cores and returns the build time in seconds.
///
/// Records through the observability bundle `obs`.
pub fn run_kbuild(core_gapped: bool, total_cores: u16, jobs: u64, seed: u64, obs: &Obs) -> f64 {
    let mut sys_config = SystemConfig::paper_default();
    sys_config.seed = seed;
    let vcpus: u32;
    if core_gapped {
        sys_config.rmm = cg_rmm::RmmConfig::core_gapped();
        sys_config.num_host_cores = 1;
        sys_config.machine.num_cores = total_cores.max(2);
        vcpus = (total_cores - 1) as u32;
    } else {
        sys_config.rmm = cg_rmm::RmmConfig::shared_core();
        sys_config.num_host_cores = total_cores;
        sys_config.machine.num_cores = total_cores + 1;
        vcpus = total_cores as u32;
    }
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let app = KernelBuild::new(vcpus, jobs, 0, seed);
    let guest = GuestKernel::new(vcpus, sys_config.host.guest_hz, Box::new(app));
    let spec = if core_gapped {
        VmSpec::core_gapped(vcpus)
    } else {
        VmSpec::shared_core(vcpus)
    }
    .with_device(DeviceKind::VirtioBlk);
    let vm = system
        .add_vm(spec, Box::new(guest), None)
        .expect("kbuild VM");
    let done = system.run_until_done(SimDuration::secs(600));
    assert!(done, "kernel build did not complete");
    let report = system.vm_report(vm);
    report
        .finished
        .unwrap_or(SimTime::ZERO)
        .duration_since(report.started)
        .as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redis_set_completes_and_orders_latency() {
        let (r, _) = run_redis(RedisCommand::Set, true, 3_000, 11, &Obs::disabled());
        assert!(r.krps > 10.0, "krps {}", r.krps);
        assert!(r.mean_ms <= r.p95_ms && r.p95_ms <= r.p99_ms);
    }

    #[test]
    fn lrange_is_slower_than_set() {
        let (set, _) = run_redis(RedisCommand::Set, false, 2_000, 11, &Obs::disabled());
        let (lrange, _) = run_redis(RedisCommand::Lrange100, false, 1_000, 11, &Obs::disabled());
        assert!(lrange.krps < set.krps / 2.0);
        assert!(lrange.mean_ms > set.mean_ms);
    }

    #[test]
    fn redis_virtio_fastpath_completes() {
        use crate::experiments::io::IoPathMode;
        let (r, stats) = run_redis_virtio(RedisCommand::Set, IoPathMode::Fastpath, 2_000, 11);
        assert!(r.krps > 1.0, "krps {}", r.krps);
        assert!(stats.kicks > 0);
        assert!(stats.irqs > 0);
    }

    #[test]
    fn suppression_ablation_notifies_more() {
        use crate::experiments::io::IoPathMode;
        // The 50-client pool keeps requests batched in flight, so
        // EVENT_IDX has coalescing opportunities NetPIPE lacks.
        let (_, fast) = run_redis_virtio(RedisCommand::Set, IoPathMode::Fastpath, 2_000, 11);
        let (_, noev) = run_redis_virtio(
            RedisCommand::Set,
            IoPathMode::FastpathNoSuppression,
            2_000,
            11,
        );
        assert!(
            noev.kicks + noev.irqs > fast.kicks + fast.irqs,
            "no-suppression kicks+irqs {} vs suppressed {}",
            noev.kicks + noev.irqs,
            fast.kicks + fast.irqs
        );
        assert!(
            fast.kicks_suppressed + fast.irqs_suppressed > 0,
            "suppression never engaged"
        );
        assert_eq!(noev.kicks_suppressed, 0);
        assert_eq!(noev.irqs_suppressed, 0);
    }

    #[test]
    fn kbuild_scales_with_cores() {
        let t4 = run_kbuild(true, 4, 60, 3, &Obs::disabled());
        let t8 = run_kbuild(true, 8, 60, 3, &Obs::disabled());
        assert!(
            t8 < t4 * 0.65,
            "build time should drop with more cores: {t4} vs {t8}"
        );
    }

    #[test]
    fn kbuild_modes_are_comparable() {
        // Fig. 10: core-gapped tracks shared-core despite one fewer vCPU
        // and virtio contention.
        let shared = run_kbuild(false, 8, 60, 3, &Obs::disabled());
        let gapped = run_kbuild(true, 8, 60, 3, &Obs::disabled());
        let ratio = gapped / shared;
        assert!(
            (0.9..=1.5).contains(&ratio),
            "gapped/shared build-time ratio {ratio} (shared {shared}s gapped {gapped}s)"
        );
    }
}
