//! Table 4: interrupt delegation effect on CoreMark-PRO exits.
//!
//! Paper (16 cores, so 15 guest vCPUs + 1 host core):
//! interrupt-related exits 33954 ± 161 → 390 ± 3; total 37712 ± 504 → 1324 ± 60.

use cg_bench::{header, Report};
use cg_core::experiments::scaling::{run_coremark, ScalingConfig};
use cg_sim::SimDuration;

fn main() {
    let mut report = Report::from_args("table4");
    header("Table 4: interrupt delegation effect on CoreMark-PRO (16 cores, 4.5 s)");
    let dur = SimDuration::millis(4_500);
    let (without, _) = run_coremark(
        ScalingConfig::CoreGappedNoDelegation,
        16,
        dur,
        42,
        report.obs(),
    );
    let (with, run_hist) = run_coremark(ScalingConfig::CoreGapped, 16, dur, 42, report.obs());
    report.row(
        "Interrupt-related exits, without delegation",
        without.exits_interrupt as f64,
        33_954.0,
        "",
    );
    report.row(
        "Interrupt-related exits, with delegation",
        with.exits_interrupt as f64,
        390.0,
        "",
    );
    report.row(
        "Total exits, without delegation",
        without.exits_total as f64,
        37_712.0,
        "",
    );
    report.row(
        "Total exits, with delegation",
        with.exits_total as f64,
        1_324.0,
        "",
    );
    let reduction = without.exits_total as f64 / with.exits_total.max(1) as f64;
    report.row("Exit-count reduction factor", reduction, 28.0, "x");
    println!();
    println!(
        "run-to-run latency (paper §5.2: 26.18 ± 0.96 us): {:.2} us",
        with.run_to_run_us_mean
    );
    report.record(
        "run-to-run latency, with delegation",
        with.run_to_run_us_mean,
        "us",
    );
    report.histogram("run-to-run latency distribution", &run_hist, 1.0, "us");
    report.finish();
}
