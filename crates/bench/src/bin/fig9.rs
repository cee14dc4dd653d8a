//! Fig. 9: IOzone sync read/write throughput to a virtio block device
//! (O_DIRECT), shared-core vs core-gapped.

use cg_bench::{header, Report};
use cg_core::experiments::io::run_iozone;

fn main() {
    let mut report = Report::from_args("fig9");
    let quick = report.quick();
    let records: &[u64] = if quick {
        &[4096, 1 << 20, 16 << 20]
    } else {
        &[
            4096,
            16384,
            65536,
            262144,
            1 << 20,
            4 << 20,
            16 << 20,
            64 << 20,
        ]
    };
    let reps = if quick { 3 } else { 8 };
    let shared = run_iozone(false, records, reps, 42, report.obs());
    let gapped = run_iozone(true, records, reps, 42, report.obs());
    header("Fig. 9: IOzone sync throughput (MiB/s) vs record size");
    println!(
        "{:>10}\tread shared\tread gapped\twrite shared\twrite gapped",
        "record"
    );
    for &r in records {
        println!(
            "{r:>10}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
            shared[&(r, false)],
            gapped[&(r, false)],
            shared[&(r, true)],
            gapped[&(r, true)]
        );
        report.record(&format!("read shared {r} B"), shared[&(r, false)], "MiB/s");
        report.record(&format!("read gapped {r} B"), gapped[&(r, false)], "MiB/s");
        report.record(&format!("write shared {r} B"), shared[&(r, true)], "MiB/s");
        report.record(&format!("write gapped {r} B"), gapped[&(r, true)], "MiB/s");
    }
    println!();
    println!("Paper shape: core-gapping loses at small records (exit-intensive sync I/O),");
    println!("reaching parity for large (>10 MiB) transfers.");
    report.finish();
}
