//! Attested live migration: downtime under a dirtying fleet, pre-copy
//! vs stop-and-copy-only, and the tampered-blob abort path.
//!
//! A two-node cluster drains eight core-gapped CVMs from node 0 into
//! node 1 while every guest keeps re-dirtying its working set — each
//! drain evacuates under load. Pre-copy ships the image in iterative
//! dirty-granule rounds with the guest running and only the converged
//! residual inside the downtime window; the stop-and-copy-only baseline
//! ships the whole image during downtime. The tampering run corrupts
//! every sealed blob in transit: the destination RMM must reject and
//! audit each import, and every VM must resume on the source.

use cg_bench::{header, Report};
use cg_core::experiments::migrate::{run_migrate_batch, MigrateBatchConfig};
use cg_sim::Json;

fn main() {
    let mut report = Report::from_args("migrate");
    let quick = report.quick();
    let mut base = MigrateBatchConfig::paper_default();
    if quick {
        base.vms = 3;
        base.cores = 16;
    }

    header("Live migration: pre-copy vs stop-and-copy-only (same dirtying fleet)");
    println!(
        "{:>14} {:>9} {:>8} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "mode", "migrated", "aborted", "down_p50", "down_p99", "rounds", "pre_gran", "stop_gran"
    );
    let mut p99 = [0.0f64; 2];
    for (i, pre_copy) in [true, false].into_iter().enumerate() {
        let cfg = if pre_copy {
            base.clone()
        } else {
            base.clone().stop_copy_only()
        };
        let r = run_migrate_batch(&cfg, report.obs());
        p99[i] = r.downtime_p99_us;
        let tag = if pre_copy {
            "pre-copy"
        } else {
            "stop-copy-only"
        };
        println!(
            "{:>14} {:>9} {:>8} {:>10.1}us {:>10.1}us {:>8.1} {:>10} {:>10}",
            tag,
            r.completed,
            r.aborted,
            r.downtime_p50_us,
            r.downtime_p99_us,
            r.rounds_mean,
            r.granules_precopy,
            r.granules_stopcopy
        );
        assert_eq!(r.completed, r.migrations, "{tag}: every drain must land");
        report.record(&format!("{tag} migrated"), r.completed as f64, "");
        report.record(&format!("{tag} downtime p50"), r.downtime_p50_us, "us");
        report.record(&format!("{tag} downtime p99"), r.downtime_p99_us, "us");
        report.record(&format!("{tag} total mean"), r.total_mean_us, "us");
        report.record(&format!("{tag} rounds mean"), r.rounds_mean, "");
        report.record(
            &format!("{tag} granules precopy"),
            r.granules_precopy as f64,
            "",
        );
        report.record(
            &format!("{tag} granules stopcopy"),
            r.granules_stopcopy as f64,
            "",
        );
        report.record(&format!("{tag} guest writes"), r.guest_writes as f64, "");
        report.note(
            &format!("fingerprint {tag} src"),
            Json::from(format!("{:#018x}", r.src_fingerprint)),
        );
        report.note(
            &format!("fingerprint {tag} dst"),
            Json::from(format!("{:#018x}", r.dst_fingerprint)),
        );
    }
    assert!(
        p99[0] < p99[1],
        "pre-copy downtime p99 ({:.1}us) must beat stop-and-copy-only ({:.1}us)",
        p99[0],
        p99[1]
    );
    report.record("p99 improvement", p99[1] - p99[0], "us");

    header("Tampered blobs: verified abort, resume on source");
    let t = run_migrate_batch(&base.clone().with_tampering(), report.obs());
    println!(
        "attempted {}  aborted {}  resumed-on-source {}  imports rejected (audited) {}",
        t.migrations, t.aborted, t.resumed_on_source, t.imports_rejected
    );
    assert_eq!(t.completed, 0, "no tampered blob may import");
    assert_eq!(t.aborted, t.migrations);
    assert_eq!(
        t.resumed_on_source, t.migrations,
        "every aborted VM must resume on the source"
    );
    assert_eq!(
        t.imports_rejected, t.migrations,
        "every rejection must be audited by the destination RMM"
    );
    report.record("tampered attempted", t.migrations as f64, "");
    report.record("tampered aborted", t.aborted as f64, "");
    report.record("tampered resumed on source", t.resumed_on_source as f64, "");
    report.record("tampered imports rejected", t.imports_rejected as f64, "");

    println!();
    println!("Expected shape: pre-copy pays the image transfer while the guest");
    println!("runs and only ships the converged residual during downtime, so its");
    println!("downtime p99 undercuts the stop-and-copy-only baseline; tampered");
    println!("blobs always abort into a source-side resume, never a silent import.");
    report.finish();
}
