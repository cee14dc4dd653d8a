//! Fig. 10: parallel kernel build time vs core count (virtio disk).

use cg_bench::{header, Report};
use cg_core::experiments::apps::run_kbuild;

fn main() {
    let mut report = Report::from_args("fig10");
    let cores: &[u16] = if report.quick() {
        &[4, 8]
    } else {
        &[2, 4, 8, 16, 24, 32]
    };
    let jobs = if report.quick() { 120 } else { 400 };
    header("Fig. 10: kernel build time (s) vs core count");
    println!("{:>6}\tshared-core\tcore-gapped\tratio", "cores");
    for &n in cores {
        let shared = run_kbuild(false, n, jobs, 42, report.obs());
        let gapped = run_kbuild(true, n, jobs, 42, report.obs());
        println!("{n:>6}\t{shared:.2}\t{gapped:.2}\t{:.3}", gapped / shared);
        report.record(&format!("shared-core {n} cores build time"), shared, "s");
        report.record(&format!("core-gapped {n} cores build time"), gapped, "s");
        report.record(
            &format!("{n} cores gapped/shared ratio"),
            gapped / shared,
            "x",
        );
    }
    println!();
    println!("Paper shape: core-gapped builds scale like shared-core despite one fewer");
    println!("vCPU and virtio-disk contention on the single host core.");
    report.finish();
}
