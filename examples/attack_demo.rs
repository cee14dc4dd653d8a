//! Demonstration of the paper's security claim: a co-resident attacker
//! extracts a victim's secret-dependent footprints on a shared core, and
//! gets nothing once the VMs are core-gapped.
//!
//! Run with: `cargo run --example attack_demo`

use coregap::sim::SimDuration;
use coregap::system::experiments::security::{run_attack, AttackScenario};
use coregap::system::Obs;

fn main() {
    println!("A victim CVM computes on a planted secret while an attacker VM");
    println!("probes the microarchitectural state of the core it runs on.\n");
    for scenario in AttackScenario::ALL {
        let outcome = run_attack(scenario, SimDuration::millis(100), 7, &Obs::disabled());
        println!("== {}", scenario.label());
        println!("   attacker probes:            {}", outcome.probes);
        println!("   same-core observations:     {}", outcome.same_core_leaks);
        println!(
            "   secret-dependent leaks:     {}",
            outcome.same_core_secret_leaks
        );
        println!(
            "   shared-LLC observations:    {} (outside core gapping's scope)",
            outcome.llc_leaks
        );
        println!(
            "   core-gapping property holds: {}\n",
            outcome.core_gapping_holds()
        );
    }
    println!("The mitigation flush (applied by the monitor on every world switch)");
    println!("clears branch predictors and fill buffers but not caches or TLBs —");
    println!("which is why the shared-core CVM still leaks, and why the paper");
    println!("argues for not sharing cores at all.");
}
