//! Smoke coverage of every experiment entry point at small scale, plus
//! the shape invariants the paper's figures rest on.

use cg_core::experiments::apps::run_redis;
use cg_core::experiments::io::{run_iozone, run_netpipe, NetpipeConfig};
use cg_core::experiments::scaling::{run_coremark, run_multivm, ScalingConfig};
use cg_core::experiments::tdx::run_fault_storm;
use cg_core::Obs;
use cg_sim::SimDuration;
use cg_workloads::redis::RedisCommand;

#[test]
fn coremark_scales_superlinearly_in_core_count() {
    let d = SimDuration::millis(200);
    let s4 = run_coremark(ScalingConfig::CoreGapped, 4, d, 1, &Obs::disabled())
        .0
        .score;
    let s8 = run_coremark(ScalingConfig::CoreGapped, 8, d, 1, &Obs::disabled())
        .0
        .score;
    // 3 → 7 vCPUs: expect ≈ 7/3 scaling.
    let ratio = s8 / s4;
    assert!((2.0..2.6).contains(&ratio), "scaling ratio {ratio}");
}

#[test]
fn fair_accounting_gives_shared_core_one_extra_vcpu() {
    let d = SimDuration::millis(200);
    let shared = run_coremark(ScalingConfig::SharedCore, 8, d, 1, &Obs::disabled())
        .0
        .score;
    let gapped = run_coremark(ScalingConfig::CoreGapped, 8, d, 1, &Obs::disabled())
        .0
        .score;
    // Shared runs 8 vCPUs, gapped 7: expect ≈ 8/7 with small overheads.
    let ratio = shared / gapped;
    assert!((1.05..1.25).contains(&ratio), "ratio {ratio}");
}

#[test]
fn multivm_aggregate_is_linear() {
    let d = SimDuration::millis(200);
    let one = run_multivm(ScalingConfig::CoreGapped, 1, d, 1, &Obs::disabled());
    let four = run_multivm(ScalingConfig::CoreGapped, 4, d, 1, &Obs::disabled());
    let ratio = four / one;
    assert!((3.8..4.2).contains(&ratio), "multivm ratio {ratio}");
}

#[test]
fn netpipe_direct_delivery_beats_host_mediated() {
    let gapped = run_netpipe(
        NetpipeConfig {
            sriov: true,
            core_gapped: true,
            direct_delivery: false,
        },
        &[1500],
        5,
        1,
        &Obs::disabled(),
    );
    let direct = run_netpipe(NetpipeConfig::DIRECT, &[1500], 5, 1, &Obs::disabled());
    assert!(direct[&1500].rtt_us < gapped[&1500].rtt_us - 5.0);
}

#[test]
fn iozone_gap_shrinks_with_record_size() {
    let shared = run_iozone(false, &[4096, 4 << 20], 3, 1, &Obs::disabled());
    let gapped = run_iozone(true, &[4096, 4 << 20], 3, 1, &Obs::disabled());
    let small = gapped[&(4096, false)] / shared[&(4096, false)];
    let large = gapped[&(4 << 20, false)] / shared[&(4 << 20, false)];
    assert!(small < large, "small {small} vs large {large}");
}

#[test]
fn redis_core_gapping_wins_on_throughput() {
    let (shared, _) = run_redis(RedisCommand::Set, false, 5_000, 1, &Obs::disabled());
    let (gapped, _) = run_redis(RedisCommand::Set, true, 5_000, 1, &Obs::disabled());
    assert!(
        gapped.krps > shared.krps * 1.02,
        "gapped {} vs shared {}",
        gapped.krps,
        shared.krps
    );
}

#[test]
fn tdx_tables_are_never_slower() {
    let cca = run_fault_storm(false, 60, 1, &Obs::disabled());
    let tdx = run_fault_storm(true, 60, 1, &Obs::disabled());
    assert!(tdx.service_us.mean() < cca.service_us.mean());
}
