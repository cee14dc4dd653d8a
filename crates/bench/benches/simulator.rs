//! Criterion benchmarks of the simulator itself: how fast the
//! deterministic event loop executes the paper's scenarios. These bound
//! how large an experiment the harness can sweep.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cg_core::experiments::apps::run_redis;
use cg_core::experiments::io::{run_iozone, run_netpipe, NetpipeConfig};
use cg_core::experiments::latency::{run_vipi, IpiConfig};
use cg_core::experiments::scaling::{run_coremark, ScalingConfig};
use cg_core::{Obs, System, SystemConfig, VmSpec};
use cg_sim::SimDuration;
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;
use cg_workloads::redis::RedisCommand;

fn bench_coremark_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    group.bench_function("coremark_gapped_4c_100ms", |b| {
        b.iter(|| {
            black_box(run_coremark(
                ScalingConfig::CoreGapped,
                4,
                SimDuration::millis(100),
                42,
                &Obs::disabled(),
            ))
        })
    });
    group.bench_function("coremark_shared_4c_100ms", |b| {
        b.iter(|| {
            black_box(run_coremark(
                ScalingConfig::SharedCore,
                4,
                SimDuration::millis(100),
                42,
                &Obs::disabled(),
            ))
        })
    });
    group.bench_function("vipi_delegated_50pings", |b| {
        b.iter(|| {
            black_box(run_vipi(
                IpiConfig::CoreGappedDelegated,
                50,
                42,
                &Obs::disabled(),
            ))
        })
    });
    group.bench_function("netpipe_sriov_gapped_5reps", |b| {
        b.iter(|| {
            black_box(run_netpipe(
                NetpipeConfig {
                    sriov: true,
                    core_gapped: true,
                    direct_delivery: false,
                },
                &[1500, 65536],
                5,
                42,
                &Obs::disabled(),
            ))
        })
    });
    group.bench_function("iozone_gapped_3reps", |b| {
        b.iter(|| black_box(run_iozone(true, &[4096, 1 << 20], 3, 42, &Obs::disabled())))
    });
    group.bench_function("redis_gapped_2k_requests", |b| {
        b.iter(|| {
            black_box(run_redis(
                RedisCommand::Get,
                true,
                2_000,
                42,
                &Obs::disabled(),
            ))
        })
    });
    group.finish();
}

fn bench_system_construction(c: &mut Criterion) {
    c.bench_function("build_cvm_4vcpu", |b| {
        b.iter_batched(
            || System::new(SystemConfig::small()),
            |mut system| {
                let guest = GuestKernel::new(
                    4,
                    250,
                    Box::new(CoremarkPro::new(4, SimDuration::micros(100))),
                );
                black_box(
                    system
                        .add_vm(VmSpec::core_gapped(4), Box::new(guest), None)
                        .unwrap(),
                );
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_coremark_simulation,
    bench_system_construction
);
criterion_main!(benches);
