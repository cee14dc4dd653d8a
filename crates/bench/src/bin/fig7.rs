//! Fig. 7: aggregate CoreMark-PRO score for an increasing count of
//! 4-core VMs. All core-gapped VMMs share a single host core.

use cg_bench::{header, Report};
use cg_core::experiments::scaling::{run_multivm, ScalingConfig};
use cg_sim::SimDuration;

fn main() {
    let mut report = Report::from_args("fig7");
    let dur = if report.quick() {
        SimDuration::millis(500)
    } else {
        SimDuration::millis(1500)
    };
    let counts: &[u16] = if report.quick() {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 12, 16]
    };
    header("Fig. 7: aggregate score of K 4-vCPU VMs (1 host core for all core-gapped VMMs)");
    println!("{:>5}\tshared-core\tcore-gapped", "VMs");
    for &k in counts {
        let shared = run_multivm(ScalingConfig::SharedCore, k, dur, 42, report.obs());
        let gapped = run_multivm(ScalingConfig::CoreGapped, k, dur, 42, report.obs());
        println!("{k:>5}\t{shared:.0}\t{gapped:.0}");
        report.record(&format!("shared-core {k} VMs"), shared, "units/s");
        report.record(&format!("core-gapped {k} VMs"), gapped, "units/s");
    }
    println!();
    println!("Expected shape: both series scale linearly with VM count (paper fig. 7).");
    report.finish();
}
