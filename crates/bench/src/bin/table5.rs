//! Table 5: Redis benchmark — 50 clients, 512-byte objects, SR-IOV,
//! 16 physical cores (15 vCPUs under core gapping).

use cg_bench::{header, Report};
use cg_core::experiments::apps::{paper_redis, run_redis};
use cg_workloads::redis::RedisCommand;

fn main() {
    let mut report = Report::from_args("table5");
    let requests = if report.quick() { 20_000 } else { 100_000 };
    header("Table 5: Redis benchmark (50 clients, 512-byte objects)");
    for (cmd, name) in [
        (RedisCommand::Set, "SET"),
        (RedisCommand::Get, "GET"),
        (RedisCommand::Lrange100, "LRANGE 100"),
    ] {
        for core_gapped in [false, true] {
            let mode = if core_gapped {
                "core gapped"
            } else {
                "shared core"
            };
            let (m, hist) = run_redis(cmd, core_gapped, requests, 42, report.obs());
            let p = paper_redis(cmd, core_gapped);
            report.row(&format!("{name} {mode} throughput"), m.krps, p.krps, "krps");
            report.row(
                &format!("{name} {mode} mean latency"),
                m.mean_ms,
                p.mean_ms,
                "ms",
            );
            report.row(
                &format!("{name} {mode} p95 latency"),
                m.p95_ms,
                p.p95_ms,
                "ms",
            );
            report.row(
                &format!("{name} {mode} p99 latency"),
                m.p99_ms,
                p.p99_ms,
                "ms",
            );
            // The full measured distribution (µs histogram reported in
            // ms), beyond the three percentiles the paper prints.
            report.histogram(&format!("{name} {mode} latency"), &hist, 1_000.0, "ms");
        }
        println!();
    }
    report.finish();
}
