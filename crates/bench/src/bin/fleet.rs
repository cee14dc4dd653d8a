//! The cg-fleet serving plane: per-tenant SLO attainment under
//! overload, across three ablations of the same offered load.
//!
//! A two-node cluster hosts a skewed tenant mix — the hot node's
//! elastic ceilings oversubscribe its dedicable cores, and the offered
//! Poisson load exceeds the hot tenants' serving capacity. The bench
//! compares shedding-on (admission control + SLO-driven elastic
//! scaling + migration rebalancing), shedding-off (admit everything),
//! and static allocation (shedding on, elastic off). Attainment counts
//! shed requests as SLO misses, so admission control must buy back more
//! with bounded queues than it costs in rejections — that inequality is
//! asserted, not just printed.

use cg_bench::{header, Report};
use cg_core::experiments::fleet::{run_fleet, FleetConfig, FleetResult};
use cg_sim::Json;

fn tenant_table(r: &FleetResult) {
    println!(
        "    {:>3} {:>5} {:>4} {:>8} {:>8} {:>6} {:>9} {:>9} {:>7}",
        "ten", "node", "act", "offered", "admitted", "shed", "p50", "p99", "attain"
    );
    for (i, t) in r.tenants.iter().enumerate() {
        println!(
            "    {:>3} {:>5} {:>4} {:>8} {:>8} {:>6} {:>7.0}us {:>7.0}us {:>6.1}%",
            format!("t{i}"),
            t.node,
            t.active,
            t.offered,
            t.admitted,
            t.shed,
            t.p50_us,
            t.p99_us,
            t.attainment * 100.0
        );
    }
}

fn main() {
    let mut report = Report::from_args("fleet");
    let quick = report.quick();
    let mut base = FleetConfig::paper_default();
    if quick {
        base.epochs = 5;
    }

    header("cg-fleet: SLO attainment under overload (same offered load)");
    println!(
        "{:>10} {:>8} {:>8} {:>6} {:>9} {:>8} {:>7} {:>5} {:>4} {:>7}",
        "ablation",
        "offered",
        "admitted",
        "shed",
        "completed",
        "inflight",
        "met",
        "ups",
        "mig",
        "attain"
    );
    let mut attain = [0.0f64; 3];
    let ablations = [
        ("shed-on", base.clone()),
        ("shed-off", base.clone().shedding_off()),
        ("static", base.clone().static_allocation()),
    ];
    let mut results = Vec::new();
    for (i, (tag, cfg)) in ablations.iter().enumerate() {
        let r = run_fleet(cfg, report.obs());
        attain[i] = r.attainment;
        println!(
            "{:>10} {:>8} {:>8} {:>6} {:>9} {:>8} {:>7} {:>5} {:>4} {:>6.1}%",
            tag,
            r.offered,
            r.admitted,
            r.shed,
            r.completed,
            r.in_flight,
            r.slo_met,
            r.resizes_up,
            r.migrations,
            r.attainment * 100.0
        );
        report.record(&format!("{tag} offered"), r.offered as f64, "");
        report.record(&format!("{tag} admitted"), r.admitted as f64, "");
        report.record(&format!("{tag} shed"), r.shed as f64, "");
        report.record(&format!("{tag} completed"), r.completed as f64, "");
        report.record(&format!("{tag} slo met"), r.slo_met as f64, "");
        report.record(&format!("{tag} attainment"), r.attainment * 100.0, "%");
        report.record(&format!("{tag} resizes up"), r.resizes_up as f64, "");
        report.record(&format!("{tag} migrations"), r.migrations as f64, "");
        for (t, out) in r.tenants.iter().enumerate() {
            report.record(&format!("{tag} t{t} p50"), out.p50_us, "us");
            report.record(&format!("{tag} t{t} p99"), out.p99_us, "us");
            report.record(
                &format!("{tag} t{t} attainment"),
                out.attainment * 100.0,
                "%",
            );
        }
        report.note(
            &format!("fingerprint {tag}"),
            Json::from(format!("{:#018x}", r.fingerprint)),
        );
        // The serving plane's bookkeeping never loses a request.
        assert_eq!(r.offered, r.admitted + r.shed, "accounting identity");
        assert_eq!(r.admitted, r.completed + r.in_flight, "accounting identity");
        results.push((tag, r));
    }
    println!();
    for (tag, r) in &results {
        println!("  per-tenant ({tag}):");
        tenant_table(r);
    }

    assert!(
        attain[0] > attain[1],
        "shedding-on must hold higher attainment than shedding-off under \
         overload ({:.1}% vs {:.1}%)",
        attain[0] * 100.0,
        attain[1] * 100.0
    );
    assert!(
        attain[0] > attain[2],
        "the elastic plane must beat static allocation ({:.1}% vs {:.1}%)",
        attain[0] * 100.0,
        attain[2] * 100.0
    );
    report.record(
        "attainment gain over shed-off",
        (attain[0] - attain[1]) * 100.0,
        "%",
    );
    report.record(
        "attainment gain over static",
        (attain[0] - attain[2]) * 100.0,
        "%",
    );

    println!();
    println!("Expected shape: admitting everything floods the hot node's queues,");
    println!("so completed requests drown in queueing delay and attainment");
    println!("collapses even though nothing was rejected. Admission control");
    println!("sheds the excess with a typed reason, keeps queues bounded for");
    println!("the requests it accepts, and the SLO tracker grows the hot");
    println!("tenants and migrates one off the saturated node.");
    report.finish();
}
