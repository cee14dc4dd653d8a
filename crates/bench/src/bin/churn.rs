//! Elastic multi-tenant churn: time-to-admit under fragmentation, with
//! the periodic defragmentation pass on vs off.
//!
//! A core-gapped node is a fixed pool of dedicable cores; tenants with
//! a contiguous-placement constraint arrive, resize, and depart on a
//! seeded schedule. Departures punch holes in the pool, and without
//! compaction an arrival needing N contiguous cores can starve while
//! more than N scattered cores sit free. The defrag pass relocates live
//! vCPUs (REC rebind + planner move, vCPUs keep running) to close the
//! holes; this bench reports what that buys: time-to-admit p50/p99,
//! fragmentation over time, and the measured per-rebind latency the
//! node pays for it.

use cg_bench::{header, Report};
use cg_core::experiments::churn::{run_churn, ChurnConfig};
use cg_sim::{Json, SimDuration};

fn main() {
    let mut report = Report::from_args("churn");
    let quick = report.quick();
    let mut base = ChurnConfig::paper_default();
    if quick {
        base.tenants = 32;
        base.cores = 32;
        base.horizon = SimDuration::millis(10);
    }

    header("Elastic churn: defragmentation on vs off (same seeded schedule)");
    println!(
        "{:>10} {:>9} {:>9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>10}",
        "defrag",
        "admitted",
        "deferred",
        "admit_p50",
        "admit_p99",
        "frag_avg",
        "rebinds",
        "rebind_us",
        "retires"
    );
    let mut p99 = [0.0f64; 2];
    for (i, on) in [true, false].into_iter().enumerate() {
        let cfg = if on {
            base.clone()
        } else {
            base.clone().without_defrag()
        };
        let r = run_churn(&cfg, report.obs());
        p99[i] = r.admit_p99_us;
        println!(
            "{:>10} {:>9} {:>9} {:>9.1}us {:>9.1}us {:>9.3} {:>9} {:>9.2} {:>10}",
            if on { "on" } else { "off" },
            r.admitted,
            r.deferred,
            r.admit_p50_us,
            r.admit_p99_us,
            r.frag_mean,
            r.rebinds,
            r.rebind_us_mean,
            r.retires
        );
        let tag = if on { "defrag-on" } else { "defrag-off" };
        report.record(&format!("{tag} admitted"), r.admitted as f64, "");
        report.record(&format!("{tag} deferred"), r.deferred as f64, "");
        report.record(&format!("{tag} admit p50"), r.admit_p50_us, "us");
        report.record(&format!("{tag} admit p99"), r.admit_p99_us, "us");
        report.record(&format!("{tag} frag mean"), r.frag_mean, "");
        report.record(&format!("{tag} frag max"), r.frag_max, "");
        report.record(&format!("{tag} rebinds"), r.rebinds as f64, "");
        report.record(&format!("{tag} rebind mean"), r.rebind_us_mean, "us");
        report.record(&format!("{tag} retires"), r.retires as f64, "");
        report.record(&format!("{tag} kills"), r.kills as f64, "");
        report.record(
            &format!("{tag} threads high-water"),
            r.threads_high_water as f64,
            "",
        );
        report.note(
            &format!("fingerprint {tag}"),
            Json::from(format!("{:#018x}", r.fingerprint)),
        );
        if on {
            assert!(r.rebinds > 0, "the defrag pass must relocate vCPUs");
        } else {
            assert_eq!(r.rebinds, 0, "no defrag, no rebinds");
        }
    }
    assert!(
        p99[0] <= p99[1],
        "defrag-on must not worsen time-to-admit p99 ({:.1}us on vs {:.1}us off)",
        p99[0],
        p99[1]
    );
    report.record("p99 improvement", p99[1] - p99[0], "us");

    println!();
    println!("Expected shape: the defrag-on run closes departure holes, so");
    println!("contiguous arrivals wait less at the tail (p99); the cost is a");
    println!("few microseconds of REC rebind per relocated vCPU.");
    report.finish();
}
