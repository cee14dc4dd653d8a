//! The vulnerability catalogue behind the paper's fig. 3.
//!
//! Entries are the disclosed transient-execution vulnerabilities and
//! architectural CPU bugs that broke processor security isolation on
//! mainstream (Intel, AMD, Arm) CPUs from 2018 through the paper's
//! publication window, as cited in §1/§2.2. Each entry records the
//! *scope* needed to exploit it — the property that determines whether
//! core gapping mitigates it.

use std::fmt;

/// Which CPU vendors were affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Vendor {
    Intel,
    Amd,
    Arm,
    /// Multiple of the above.
    Multiple,
}

/// The kind of flaw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VulnerabilityClass {
    /// Speculative/transient-execution leak.
    TransientExecution,
    /// An architectural bug leaking or corrupting state directly.
    ArchitecturalBug,
}

/// The sharing scope an attacker needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Attacker and victim must time-share one core (context switches).
    SameCoreTimeShared,
    /// Attacker on a sibling hardware thread of the victim's core.
    SameCoreSmt,
    /// Exploitable across physical cores.
    CrossCore,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scope::SameCoreTimeShared => "same-core (time-shared)",
            Scope::SameCoreSmt => "same-core (SMT sibling)",
            Scope::CrossCore => "cross-core",
        };
        f.write_str(s)
    }
}

/// One catalogue entry.
#[derive(Debug, Clone)]
pub struct Vulnerability {
    /// Common name.
    pub name: &'static str,
    /// Disclosure year.
    pub year: u16,
    /// Affected vendor(s).
    pub vendor: Vendor,
    /// Flaw class.
    pub class: VulnerabilityClass,
    /// Exploitation scope.
    pub scope: Scope,
    /// Primary microarchitectural structure involved.
    pub structure: &'static str,
    /// Notes on the cloud-VM relevance.
    pub note: &'static str,
}

impl Vulnerability {
    /// Returns `true` if core gapping mitigates this vulnerability for
    /// the CVM isolation scenario: everything whose exploitation needs
    /// same-core sharing (either kind). GhostRace is cross-core for
    /// *steering* but requires a shared kernel, so core gapping
    /// mitigates it too (paper §2.2); that is encoded in its scope here.
    pub fn mitigated_by_core_gapping(&self) -> bool {
        self.scope != Scope::CrossCore
    }
}

/// The full catalogue.
///
/// # Example
///
/// ```
/// use cg_attacks::Catalog;
///
/// let catalog = Catalog::new();
/// assert!(catalog.len() >= 30);
/// // Only the demonstrated cross-core leaks escape core gapping.
/// let names: Vec<&str> = catalog.not_mitigated().iter().map(|v| v.name).collect();
/// assert_eq!(names, ["NetSpectre", "CrossTalk"]);
/// ```
#[derive(Debug, Clone)]
pub struct Catalog {
    entries: Vec<Vulnerability>,
}

macro_rules! vuln {
    ($name:expr, $year:expr, $vendor:ident, $class:ident, $scope:ident, $structure:expr, $note:expr) => {
        Vulnerability {
            name: $name,
            year: $year,
            vendor: Vendor::$vendor,
            class: VulnerabilityClass::$class,
            scope: Scope::$scope,
            structure: $structure,
            note: $note,
        }
    };
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog::new()
    }
}

impl Catalog {
    /// Builds the fig. 3 catalogue.
    pub fn new() -> Catalog {
        let entries = vec![
            vuln!("Spectre v1/v2", 2018, Multiple, TransientExecution, SameCoreTimeShared,
                "branch predictor", "cross-privilege speculation through trained predictors"),
            vuln!("Meltdown", 2018, Intel, TransientExecution, SameCoreTimeShared,
                "L1D / permission check", "kernel memory read from user space"),
            vuln!("Speculative Store Bypass", 2018, Multiple, TransientExecution, SameCoreTimeShared,
                "store buffer", "CVE-2018-3639; memory disambiguation speculation"),
            vuln!("LazyFP", 2018, Intel, TransientExecution, SameCoreTimeShared,
                "FPU register file", "lazy FPU context switch state leak"),
            vuln!("Foreshadow (L1TF)", 2018, Intel, TransientExecution, SameCoreSmt,
                "L1D", "broke SGX and VM isolation via L1 terminal faults"),
            vuln!("NetSpectre", 2019, Multiple, TransientExecution, CrossCore,
                "network-visible timing", "remote; < 10 bits/hour leak rate in cloud settings"),
            vuln!("ZombieLoad", 2019, Intel, TransientExecution, SameCoreSmt,
                "fill buffer", "MDS-class cross-privilege data sampling"),
            vuln!("RIDL", 2019, Intel, TransientExecution, SameCoreSmt,
                "line fill / load ports", "rogue in-flight data load"),
            vuln!("Fallout", 2019, Intel, TransientExecution, SameCoreTimeShared,
                "store buffer", "data leaks on Meltdown-resistant CPUs"),
            vuln!("SWAPGS", 2019, Intel, TransientExecution, SameCoreTimeShared,
                "branch predictor / segments", "speculative SWAPGS behaviour"),
            vuln!("iTLB multihit", 2019, Intel, ArchitecturalBug, SameCoreTimeShared,
                "iTLB", "machine check / isolation break via multihit entries"),
            vuln!("Plundervolt", 2020, Intel, ArchitecturalBug, SameCoreTimeShared,
                "voltage interface", "software fault injection against SGX"),
            vuln!("LVI", 2020, Intel, TransientExecution, SameCoreTimeShared,
                "fill buffer", "load value injection reverses MDS direction"),
            vuln!("CacheOut", 2020, Intel, TransientExecution, SameCoreSmt,
                "L1D eviction buffers", "leak data at rest via cache evictions"),
            vuln!("Snoop-assisted L1 sampling", 2020, Intel, TransientExecution, SameCoreTimeShared,
                "L1D / snoops", "intel advisory on snoop-assisted sampling"),
            vuln!("CrossTalk", 2020, Intel, TransientExecution, CrossCore,
                "staging buffer (CPUID/RDRAND)", "the one severe cross-core leak; vendor advisory + cloud mitigations"),
            vuln!("Straight-line speculation", 2020, Arm, TransientExecution, SameCoreTimeShared,
                "instruction fetch", "speculation past unconditional control flow"),
            vuln!("I see dead uops", 2021, Multiple, TransientExecution, SameCoreSmt,
                "micro-op cache", "leaks through the uop cache"),
            vuln!("MMIO stale data", 2022, Intel, TransientExecution, SameCoreTimeShared,
                "MMIO / fill buffers", "stale data via processor MMIO"),
            vuln!("AEPIC leak", 2022, Intel, ArchitecturalBug, SameCoreTimeShared,
                "APIC MMIO window", "architecturally leaked uninitialised microarchitectural data from SGX; a TDX VM would be equally exposed today"),
            vuln!("Retbleed", 2022, Multiple, TransientExecution, SameCoreTimeShared,
                "return stack / BTB", "return instruction speculation hijack"),
            vuln!("Branch History Injection", 2022, Multiple, TransientExecution, SameCoreTimeShared,
                "branch history buffer", "defeats eIBRS/CSV2 hardware mitigations"),
            vuln!("PACMAN", 2022, Arm, TransientExecution, SameCoreTimeShared,
                "pointer authentication", "speculative PAC oracle on Apple silicon"),
            vuln!("Augury", 2022, Arm, TransientExecution, SameCoreTimeShared,
                "data memory-dependent prefetcher", "DMP leaks data at rest"),
            vuln!("Hertzbleed-class (M)WAIT", 2023, Multiple, TransientExecution, SameCoreTimeShared,
                "power/wait hints", "bridging microarchitectural and architectural channels"),
            vuln!("Inception", 2023, Amd, TransientExecution, SameCoreTimeShared,
                "return stack (Phantom)", "training in transient execution"),
            vuln!("Downfall", 2023, Intel, TransientExecution, SameCoreTimeShared,
                "gather / vector registers", "speculative data gathering leak"),
            vuln!("Zenbleed", 2023, Amd, ArchitecturalBug, SameCoreTimeShared,
                "vector register file", "use-after-free of YMM register halves"),
            vuln!("Reptar", 2023, Intel, ArchitecturalBug, SameCoreTimeShared,
                "instruction decode", "redundant-prefix machine state corruption"),
            vuln!("Speculation at fault", 2023, Multiple, TransientExecution, SameCoreTimeShared,
                "exception handling", "modeling leaks around CPU exceptions"),
            vuln!("GhostRace", 2024, Multiple, TransientExecution, SameCoreTimeShared,
                "speculative races (shared kernel)", "cross-core steering but requires a kernel shared with the victim — removed by core gapping"),
            vuln!("CacheWarp", 2024, Amd, ArchitecturalBug, SameCoreTimeShared,
                "cache line invalidation", "software fault injection against SEV via selective state reset"),
            vuln!("GoFetch", 2024, Arm, TransientExecution, SameCoreTimeShared,
                "data memory-dependent prefetcher", "breaks constant-time crypto on Apple silicon"),
            vuln!("TikTag", 2024, Arm, TransientExecution, SameCoreTimeShared,
                "memory tagging (MTE)", "speculatively breaking MTE"),
            vuln!("InSpectre Gadget", 2024, Multiple, TransientExecution, SameCoreTimeShared,
                "residual Spectre-v2 gadgets", "cross-privilege gadget exploitation"),
            vuln!("Leaky Address Masking", 2024, Intel, TransientExecution, SameCoreTimeShared,
                "address translation", "unmasked gadgets via non-canonical translation"),
        ];
        Catalog { entries }
    }

    /// All entries.
    pub fn entries(&self) -> &[Vulnerability] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the catalogue is empty (it never is).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries disclosed in `year`.
    pub fn by_year(&self, year: u16) -> Vec<&Vulnerability> {
        self.entries.iter().filter(|v| v.year == year).collect()
    }

    /// The entries core gapping does *not* mitigate.
    pub fn not_mitigated(&self) -> Vec<&Vulnerability> {
        self.entries
            .iter()
            .filter(|v| !v.mitigated_by_core_gapping())
            .collect()
    }

    /// Fraction of entries mitigated by core gapping.
    pub fn mitigation_rate(&self) -> f64 {
        let m = self
            .entries
            .iter()
            .filter(|v| v.mitigated_by_core_gapping())
            .count();
        m as f64 / self.entries.len() as f64
    }

    /// Per-year `(year, total, mitigated)` counts — the fig. 3 timeline.
    pub fn timeline(&self) -> Vec<(u16, usize, usize)> {
        let years: Vec<u16> = {
            let mut y: Vec<u16> = self.entries.iter().map(|v| v.year).collect();
            y.sort_unstable();
            y.dedup();
            y
        };
        years
            .into_iter()
            .map(|year| {
                let all = self.by_year(year);
                let mitigated = all.iter().filter(|v| v.mitigated_by_core_gapping()).count();
                (year, all.len(), mitigated)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_paper_headline() {
        let c = Catalog::new();
        // "30+" vulnerabilities, flood shows no sign of stopping.
        assert!(c.len() >= 30, "only {} entries", c.len());
        // Only CrossTalk and NetSpectre demonstrated cross-core leaks.
        let not = c.not_mitigated();
        let names: Vec<&str> = not.iter().map(|v| v.name).collect();
        assert_eq!(names, vec!["NetSpectre", "CrossTalk"]);
        assert!(c.mitigation_rate() > 0.9);
    }

    #[test]
    fn every_year_since_2018_has_disclosures() {
        let c = Catalog::new();
        for year in 2018..=2024 {
            assert!(
                !c.by_year(year).is_empty(),
                "no entries for {year} — the flood has not stopped"
            );
        }
    }

    #[test]
    fn ghostrace_is_classified_as_mitigated() {
        let c = Catalog::new();
        let gr = c
            .entries()
            .iter()
            .find(|v| v.name == "GhostRace")
            .expect("GhostRace present");
        assert!(gr.mitigated_by_core_gapping());
    }

    #[test]
    fn timeline_totals_are_consistent() {
        let c = Catalog::new();
        let total: usize = c.timeline().iter().map(|(_, n, _)| n).sum();
        assert_eq!(total, c.len());
        for (_, n, m) in c.timeline() {
            assert!(m <= n);
        }
    }
}
