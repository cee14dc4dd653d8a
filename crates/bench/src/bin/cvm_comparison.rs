//! The comparison the paper could not measure without RME hardware
//! (§5.1, §5.5): shared-core *confidential* VMs vs core-gapped CVMs.
//!
//! The paper's baseline is deliberately conservative — a non-confidential
//! shared-core VM, which pays no world switches, no mitigation flushes,
//! and no RMM bookkeeping. The simulator can run the real comparison:
//! a shared-core CVM whose every exit crosses the trust boundary twice.

use cg_bench::{header, Report};
use cg_core::experiments::scaling::{run_coremark, ScalingConfig};
use cg_sim::SimDuration;

fn main() {
    let mut report = Report::from_args("cvm_comparison");
    let dur = if report.quick() {
        SimDuration::millis(500)
    } else {
        SimDuration::millis(2000)
    };
    let cores: &[u16] = if report.quick() {
        &[4, 8]
    } else {
        &[4, 8, 16, 32]
    };
    header("CoreMark-PRO: shared-core CVM vs core-gapped CVM vs non-confidential baseline");
    println!(
        "{:>6}\tshared VM\tshared CVM\tcore-gapped CVM\tgapped/sharedCVM",
        "cores"
    );
    for &n in cores {
        let (plain, _) = run_coremark(ScalingConfig::SharedCore, n, dur, 42, report.obs());
        let (scc, _) = run_coremark(
            ScalingConfig::SharedCoreConfidential,
            n,
            dur,
            42,
            report.obs(),
        );
        let (gapped, _) = run_coremark(ScalingConfig::CoreGapped, n, dur, 42, report.obs());
        println!(
            "{n:>6}\t{:.0}\t{:.0}\t{:.0}\t{:.3}",
            plain.score,
            scc.score,
            gapped.score,
            gapped.score / scc.score
        );
        report.record(&format!("shared VM {n} cores"), plain.score, "units/s");
        report.record(&format!("shared CVM {n} cores"), scc.score, "units/s");
        report.record(
            &format!("core-gapped CVM {n} cores"),
            gapped.score,
            "units/s",
        );
        report.record(
            &format!("{n} cores gapped/sharedCVM ratio"),
            gapped.score / scc.score,
            "x",
        );
    }
    println!();
    println!("Paper §5.5: \"confidential VMs on shared cores will have higher VM exit");
    println!("latencies than the non-confidential baseline ... it is therefore plausible");
    println!("that core-gapped CVMs will outperform shared-core CVMs\" — quantified here.");
    report.finish();
}
