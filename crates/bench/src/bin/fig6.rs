//! Fig. 6: CoreMark-PRO scaling for shared-core VMs and core-gapped CVMs.
//!
//! The paper scales a single VM to 63 dedicated cores plus one host core
//! and shows (a) core-gapped ≈ shared-core despite one fewer vCPU,
//! (b) busy-wait polling and missing delegation re-create Quarantine's
//! scalability collapse.

use cg_bench::{header, Report};
use cg_core::experiments::scaling::{run_coremark, ScalingConfig};
use cg_sim::SimDuration;

fn main() {
    let mut report = Report::from_args("fig6");
    let quick = report.quick();
    let dur = if quick {
        SimDuration::millis(500)
    } else {
        SimDuration::millis(1500)
    };
    let cores: &[u16] = if quick {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8, 12, 16, 24, 32, 48, 64]
    };
    header("Fig. 6: CoreMark-PRO score vs core count (score = work units/s)");
    print!("{:>6}", "cores");
    for c in ScalingConfig::ALL {
        print!("\t{}", c.label());
    }
    println!();
    let mut run_to_run = Vec::new();
    for &n in cores {
        print!("{n:>6}");
        for c in ScalingConfig::ALL {
            let (r, _) = run_coremark(c, n, dur, 42, report.obs());
            if c == ScalingConfig::CoreGapped {
                run_to_run.push((n, r.run_to_run_us_mean, r.host_utilization));
            }
            report.record(
                &format!("{} {n} cores score", c.label()),
                r.score,
                "units/s",
            );
            print!("\t{:.0}", r.score);
        }
        println!();
    }
    println!();
    println!("Core-gapped run-to-run latency and host-core utilisation vs guest core count");
    println!("(paper §5.2: \"remains stable at 26.18 ± 0.96 us\"):");
    for (n, us, util) in run_to_run {
        println!(
            "{n:>6} cores: {us:>7.2} us   host util {:.1}%",
            util * 100.0
        );
        report.record(&format!("core-gapped {n} cores run-to-run"), us, "us");
        report.record(
            &format!("core-gapped {n} cores host util"),
            util * 100.0,
            "%",
        );
    }
    println!();
    println!("Expected shape: the three optimised/baseline series scale ~linearly;");
    println!("busy-wait + no-delegation saturates the host core (Quarantine-like knee ~10 cores).");
    report.finish();
}
