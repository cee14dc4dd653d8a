//! Fault sweep: throughput and recovery behaviour of the async run-call
//! path under a hostile host that drops doorbell IPIs.
//!
//! The core-gapped design funnels every vCPU exit through one
//! shared-memory channel and a single doorbell IPI (fig. 4), so a host
//! that drops that IPI can silently strand a vCPU forever. This sweep
//! injects doorbell loss at increasing probability and reports, per
//! point: CoreMark-style throughput, run-to-run latency, the injected
//! fault counts, and what recovered them (client-side retries vs the
//! watchdog rescan). With recovery enabled every point must finish with
//! zero wedged channels; the recovery-disabled baseline shows the wedge
//! the machinery exists to prevent.

use cg_bench::{header, Report};
use cg_core::config::RecoveryConfig;
use cg_core::experiments::faults::run_fault_sweep;
use cg_sim::{FaultPlan, Json, SimDuration};

fn main() {
    let mut report = Report::from_args("fault_sweep");
    let quick = report.quick();
    let dur = if quick {
        SimDuration::millis(30)
    } else {
        SimDuration::millis(200)
    };
    let losses: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.02, 0.05, 0.10]
    };
    let seed = 42;

    header("Fault sweep: doorbell-loss probability vs throughput & recovery");
    println!(
        "{:>6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "loss", "score", "r2r_us", "dropped", "retries", "wdog_rec", "reposts", "wedged"
    );
    let mut baseline = 0.0;
    for &p in losses {
        let r = run_fault_sweep(
            FaultPlan::doorbell_loss(p),
            RecoveryConfig::paper_default(),
            dur,
            seed,
            report.obs(),
        );
        if p == 0.0 {
            baseline = r.score;
        }
        println!(
            "{:>5.0}% {:>10.0} {:>10.2} {:>9} {:>9} {:>9} {:>9} {:>8}",
            p * 100.0,
            r.score,
            r.run_to_run_us_mean,
            r.doorbells_dropped,
            r.retries,
            r.watchdog_recovered,
            r.response_reposts,
            r.wedged_channels
        );
        let tag = format!("loss {:.0}%", p * 100.0);
        report.record(&format!("{tag} score"), r.score, "units/s");
        report.record(&format!("{tag} run-to-run"), r.run_to_run_us_mean, "us");
        report.record(&format!("{tag} dropped"), r.doorbells_dropped as f64, "");
        report.record(&format!("{tag} retries"), r.retries as f64, "");
        report.record(
            &format!("{tag} watchdog recovered"),
            r.watchdog_recovered as f64,
            "",
        );
        report.record(&format!("{tag} reposts"), r.response_reposts as f64, "");
        report.record(&format!("{tag} wedged"), r.wedged_channels as f64, "");
        report.note(
            &format!("fingerprint loss {:.0}%", p * 100.0),
            Json::from(format!("{:#018x}", r.fingerprint)),
        );
        assert_eq!(
            r.wedged_channels,
            0,
            "recovery must leave no channel wedged at {:.0}% loss",
            p * 100.0
        );
        if baseline > 0.0 {
            report.record(
                &format!("{tag} degradation"),
                (baseline - r.score) / baseline * 100.0,
                "%",
            );
        }
    }

    println!();
    header("Ablation: the same loss with recovery disabled");
    let worst = *losses.last().expect("non-empty sweep");
    let r = run_fault_sweep(
        FaultPlan::doorbell_loss(worst),
        RecoveryConfig::disabled(),
        dur,
        seed,
        report.obs(),
    );
    println!(
        "loss {:>3.0}%: score {:.0} units/s, {} doorbells dropped, {} channels wedged",
        worst * 100.0,
        r.score,
        r.doorbells_dropped,
        r.wedged_channels
    );
    report.record("no-recovery score", r.score, "units/s");
    report.record("no-recovery wedged", r.wedged_channels as f64, "");
    println!();
    println!("Expected shape: throughput degrades gently with loss; every recovery");
    println!("point ends with zero wedged channels, while the no-recovery ablation");
    println!("strands vCPUs on the first dropped doorbell.");
    report.finish();
}
