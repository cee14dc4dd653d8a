//! §6.1 ablation: CCA-style (monitor-mediated) vs TDX-style (host-managed
//! insecure tables) page-table interfaces on the stage-2 fault path.

use cg_bench::{header, Report};
use cg_core::experiments::tdx::run_fault_storm;

fn main() {
    let mut report = Report::from_args("tdx_ablation");
    header("TDX-flavour ablation: stage-2 fault service latency (core-gapped CVM)");
    let faults = if report.quick() { 150 } else { 400 };
    let cca = run_fault_storm(false, faults, 42, report.obs());
    let tdx = run_fault_storm(true, faults, 42, report.obs());
    report.value(
        "CCA-style (RMM call per table change), mean",
        cca.service_us.mean(),
        "us",
    );
    report.value(
        "TDX-style (insecure tables, no RPCs), mean",
        tdx.service_us.mean(),
        "us",
    );
    report.value(
        "saving per fault",
        cca.service_us.mean() - tdx.service_us.mean(),
        "us",
    );
    println!();
    println!("Paper §6.1: \"we might expect a core-gapped version of TDX to have");
    println!("moderately better relative performance, due to fewer cross-core RPCs.\"");
    report.finish();
}
