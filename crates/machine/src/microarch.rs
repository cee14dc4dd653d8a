//! Per-core microarchitectural state: warmth (performance) and taint
//! (security).
//!
//! The same structures drive both halves of the reproduction:
//!
//! * **Warmth** models how much of a domain's working set is resident in
//!   per-core structures. It produces the locality effects behind the
//!   paper's performance results: a shared-core VM that exits to the host
//!   loses L1/TLB/branch-predictor residency, while a core-gapped vCPU
//!   keeps its structures warm (paper §2.3, §5.2).
//!
//! * **Taint** records which domains (and which secrets) have left
//!   observable footprints in each structure. The `cg-attacks` crate uses
//!   this to check the paper's central security claim: with core gapping,
//!   no same-core structure ever carries another domain's footprint when a
//!   distrusting domain runs.

use std::collections::BTreeMap;

use cg_sim::SimDuration;

use crate::ids::{Domain, SecretId};
use crate::params::HwParams;

/// A microarchitectural structure that can carry footprints.
///
/// The split mirrors the paper's threat model (§2.4): everything except
/// [`Structure::Llc`] is per-core and therefore protected by core gapping;
/// the LLC is shared across cores and explicitly out of scope (the paper
/// recommends hardware cache partitioning for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Structure {
    /// Level-1 data cache (per core).
    L1d,
    /// Level-1 instruction cache (per core).
    L1i,
    /// Translation lookaside buffers (per core).
    Tlb,
    /// Branch predictor state: BTB, BHB, RSB (per core).
    BranchPredictor,
    /// Store/fill/staging buffers exploited by MDS-class attacks (per
    /// core).
    FillBuffer,
    /// Last-level cache (shared across cores; out of scope for core
    /// gapping).
    Llc,
}

impl Structure {
    /// All structures, per-core first.
    pub const ALL: [Structure; 6] = [
        Structure::L1d,
        Structure::L1i,
        Structure::Tlb,
        Structure::BranchPredictor,
        Structure::FillBuffer,
        Structure::Llc,
    ];

    /// The per-core structures protected by core gapping.
    pub const PER_CORE: [Structure; 5] = [
        Structure::L1d,
        Structure::L1i,
        Structure::Tlb,
        Structure::BranchPredictor,
        Structure::FillBuffer,
    ];

    /// The structure's bit in a taint mask.
    fn mask(self) -> u8 {
        1 << self as u8
    }

    /// Returns `true` if the structure is private to a core.
    pub fn is_per_core(self) -> bool {
        !matches!(self, Structure::Llc)
    }

    /// Returns `true` if the trust-boundary mitigation flush (as applied
    /// by firmware on world switches, cf. TDX's branch-history flush)
    /// clears this structure.
    ///
    /// Caches and TLBs are *not* cleared by such mitigations — flushing
    /// them wholesale is too expensive, which is exactly why cache-timing
    /// channels persist on shared cores.
    pub fn cleared_by_mitigation(self) -> bool {
        matches!(self, Structure::BranchPredictor | Structure::FillBuffer)
    }
}

/// A footprint label: which domain left state behind, and whether the
/// footprint depends on a secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaintLabel {
    /// The domain that created the footprint.
    pub domain: Domain,
    /// The secret the footprint depends on, if any. A `None` footprint
    /// still reveals *execution* of the domain (fingerprinting); a
    /// `Some` footprint reveals secret-dependent state — the payload of a
    /// transient-execution attack.
    pub secret: Option<SecretId>,
}

impl TaintLabel {
    /// A footprint that does not depend on any secret.
    pub fn plain(domain: Domain) -> TaintLabel {
        TaintLabel {
            domain,
            secret: None,
        }
    }

    /// A secret-dependent footprint.
    pub fn secret(domain: Domain, secret: SecretId) -> TaintLabel {
        TaintLabel {
            domain,
            secret: Some(secret),
        }
    }
}

/// Residency of one domain's working set in the per-core structures.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Warmth {
    l1: f64,
    tlb: f64,
    bp: f64,
}

impl Warmth {
    const COLD: Warmth = Warmth {
        l1: 0.0,
        tlb: 0.0,
        bp: 0.0,
    };

    fn decay(&mut self, factor: f64) {
        self.l1 *= factor;
        self.tlb *= factor;
        self.bp *= factor;
    }

    fn warm(&mut self, factor: f64) {
        // Exponential approach to fully resident.
        self.l1 += (1.0 - self.l1) * factor;
        self.tlb += (1.0 - self.tlb) * factor;
        self.bp += (1.0 - self.bp) * factor;
    }

    /// The slowdown factor (≥ 1.0) this residency gives.
    fn slowdown(&self, params: &HwParams) -> f64 {
        1.0 + params.l1_penalty * (1.0 - self.l1)
            + params.tlb_penalty * (1.0 - self.tlb) * (1.0 + params.gpc_check_factor)
            + params.bp_penalty * (1.0 - self.bp)
    }
}

/// Remembers a value computed from the last step's wall time:
/// back-to-back chunks of equal wall time (the common case once a
/// working set is resident) compute their exponentials once.
#[derive(Debug, Clone, Copy, Default)]
struct StepMemo<T> {
    last: Option<(SimDuration, T)>,
}

impl<T: Copy> StepMemo<T> {
    fn get(&mut self, wall: SimDuration, compute: impl FnOnce() -> T) -> T {
        match self.last {
            Some((w, v)) if w == wall => v,
            _ => {
                let v = compute();
                self.last = Some((wall, v));
                v
            }
        }
    }
}

/// The fraction of the gap to full residency a step of `wall` closes.
fn warm_factor(wall: SimDuration, params: &HwParams) -> f64 {
    1.0 - (-(wall.as_nanos() as f64) / params.warmup_tau.as_nanos() as f64).exp()
}

/// The fraction of foreign residency a step of `wall` leaves.
fn evict_factor(wall: SimDuration, params: &HwParams) -> f64 {
    (-(wall.as_nanos() as f64) / params.evict_tau.as_nanos() as f64).exp()
}

/// Back-to-back compute chunks of one domain on one core, worked out
/// ahead on a copy of the domain's residency: the i-th
/// [`ComputeLookahead::next_wall`] equals the wall time the i-th
/// following [`MicroArch::run_compute`] call would return, as long as
/// nothing else runs on the core in between. The core is not touched
/// until [`MicroArch::apply_lookahead`] applies a prefix of the chunks.
///
/// Each chunk is the per-chunk update of `run_compute`, iterated (never
/// a closed form); only the exponentials of equal-wall chunks are
/// shared. Every chunk's warm-up and eviction factors are kept, so
/// applying computes no exponential.
#[derive(Debug, Clone)]
pub struct ComputeLookahead {
    domain: Domain,
    /// The domain's residency at the start.
    start: Warmth,
    /// The domain's residency after the chunks so far.
    warmth: Warmth,
    factors: StepMemo<(f64, f64)>,
    /// `(warm, evict)` factors of each chunk so far.
    steps: Vec<(f64, f64)>,
}

impl Default for ComputeLookahead {
    fn default() -> ComputeLookahead {
        ComputeLookahead {
            domain: Domain::Host,
            start: Warmth::COLD,
            warmth: Warmth::COLD,
            factors: StepMemo::default(),
            steps: Vec::new(),
        }
    }
}

impl ComputeLookahead {
    /// The domain whose chunks these are.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The wall time of the next chunk of `work`.
    pub fn next_wall(&mut self, work: SimDuration, params: &HwParams) -> SimDuration {
        let wall = work.scaled(self.warmth.slowdown(params));
        let (warm, evict) = self.factors.get(wall, || {
            (warm_factor(wall, params), evict_factor(wall, params))
        });
        self.warmth.warm(warm);
        self.steps.push((warm, evict));
        wall
    }
}

/// The microarchitectural state of one core.
///
/// # Example
///
/// ```
/// use cg_machine::{Domain, HwParams, MicroArch};
/// use cg_sim::SimDuration;
///
/// let params = HwParams::small();
/// let mut ua = MicroArch::new();
/// // A cold domain runs slower than ideal...
/// let wall = ua.run_compute(Domain::Host, SimDuration::micros(100), &params);
/// assert!(wall > SimDuration::micros(100));
/// // ...and warms up as it computes.
/// let wall2 = ua.run_compute(Domain::Host, SimDuration::micros(100), &params);
/// assert!(wall2 < wall);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MicroArch {
    warmth: BTreeMap<Domain, Warmth>,
    /// Every footprint label present on the core, with the structures
    /// holding it as a mask of [`Structure`] bits. A compute step leaves
    /// one label in every structure, which is one lookup here.
    taint: BTreeMap<TaintLabel, u8>,
}

impl MicroArch {
    /// Creates cold, untainted state.
    pub fn new() -> MicroArch {
        MicroArch::default()
    }

    /// The slowdown factor (≥ 1.0) `domain` currently experiences on this
    /// core, given its structure residency.
    pub fn slowdown(&self, domain: Domain, params: &HwParams) -> f64 {
        self.residency(domain).slowdown(params)
    }

    fn residency(&self, domain: Domain) -> Warmth {
        self.warmth.get(&domain).copied().unwrap_or(Warmth::COLD)
    }

    /// Executes `work` (ideal, fully-warm compute time) for `domain`,
    /// returning the wall-clock time consumed.
    ///
    /// Warms `domain`'s residency, evicts other domains' residency, and
    /// leaves plain footprints in every per-core structure and the LLC.
    pub fn run_compute(
        &mut self,
        domain: Domain,
        work: SimDuration,
        params: &HwParams,
    ) -> SimDuration {
        let slowdown = self.slowdown(domain, params);
        let wall = work.scaled(slowdown);
        self.advance_warmth(domain, wall, params);
        self.touch_all(TaintLabel::plain(domain));
        wall
    }

    /// Restarts `ahead` at this core's current state for `domain`,
    /// keeping its buffers.
    pub fn start_lookahead(&self, domain: Domain, ahead: &mut ComputeLookahead) {
        ahead.domain = domain;
        ahead.start = self.residency(domain);
        ahead.warmth = ahead.start;
        ahead.factors = StepMemo::default();
        ahead.steps.clear();
    }

    /// Applies the first `n` chunks worked out by `ahead`, which must have
    /// been started on this core with nothing run since. The state it
    /// leaves is bit-identical to `n` calls of
    /// [`MicroArch::run_compute`].
    ///
    /// # Panics
    ///
    /// Panics if `ahead` has worked out fewer than `n` chunks.
    pub fn apply_lookahead(&mut self, ahead: &ComputeLookahead, n: usize) {
        if n == 0 {
            return;
        }
        let steps = &ahead.steps[..n];
        for (d, other) in self.warmth.iter_mut() {
            if *d != ahead.domain {
                for &(_, evict) in steps {
                    other.decay(evict);
                }
            }
        }
        let mut w = ahead.start;
        for &(warm, _) in steps {
            w.warm(warm);
        }
        self.warmth.insert(ahead.domain, w);
        self.touch_all(TaintLabel::plain(ahead.domain));
    }

    /// Executes `wall` of *fixed-cost* work for `domain`: the time is
    /// charged at face value (used for calibrated host/monitor code paths
    /// whose measured costs already include their memory behaviour), but
    /// warmth and taint bookkeeping still applies — foreign working sets
    /// are evicted and footprints are left behind.
    pub fn run_fixed(&mut self, domain: Domain, wall: SimDuration, params: &HwParams) {
        self.advance_warmth(domain, wall, params);
        self.touch_all(TaintLabel::plain(domain));
    }

    /// Like [`MicroArch::run_compute`], but the computation is
    /// secret-dependent: footprints carry the secret label. This is how
    /// attack scenarios model a victim operating on sensitive data.
    pub fn run_secret_compute(
        &mut self,
        domain: Domain,
        secret: SecretId,
        work: SimDuration,
        params: &HwParams,
    ) -> SimDuration {
        let wall = self.run_compute(domain, work, params);
        self.touch_all(TaintLabel::secret(domain, secret));
        wall
    }

    fn advance_warmth(&mut self, domain: Domain, wall: SimDuration, params: &HwParams) {
        let (warm_f, evict_f) = (warm_factor(wall, params), evict_factor(wall, params));
        for (d, w) in self.warmth.iter_mut() {
            if *d != domain {
                w.decay(evict_f);
            }
        }
        self.warmth
            .entry(domain)
            .or_insert(Warmth::COLD)
            .warm(warm_f);
    }

    /// Applies the effects of a trust-boundary crossing *with* the
    /// firmware mitigation flush: branch predictor and fill buffers are
    /// cleared (warmth and taint), for **all** domains — the flush is
    /// indiscriminate, which is why it costs performance.
    pub fn mitigation_flush(&mut self) {
        for w in self.warmth.values_mut() {
            w.bp = 0.0;
        }
        let cleared = Structure::ALL
            .into_iter()
            .filter(|s| s.cleared_by_mitigation())
            .fold(0, |mask, s| mask | s.mask());
        self.taint.retain(|_, mask| {
            *mask &= !cleared;
            *mask != 0
        });
    }

    /// Records a footprint in `structure`.
    pub fn touch(&mut self, structure: Structure, label: TaintLabel) {
        *self.taint.entry(label).or_insert(0) |= structure.mask();
    }

    /// Records a footprint in every structure.
    fn touch_all(&mut self, label: TaintLabel) {
        const ALL: u8 = (1 << Structure::ALL.len()) - 1;
        *self.taint.entry(label).or_insert(0) |= ALL;
    }

    /// The labels present in `structure`, in label order.
    fn labels_in(&self, structure: Structure) -> impl Iterator<Item = TaintLabel> + '_ {
        self.taint
            .iter()
            .filter(move |(_, mask)| *mask & structure.mask() != 0)
            .map(|(label, _)| *label)
    }

    /// Returns the foreign footprints `observer` could learn by probing
    /// `structure` on this core (e.g. via prime+probe timing): every label
    /// whose originating domain leaks to `observer`.
    ///
    /// Probing is a pure observation: it does not alter state. The caller
    /// decides whether the observer can architecturally reach the
    /// structure (same core for per-core structures).
    pub fn probe(&self, structure: Structure, observer: Domain) -> Vec<TaintLabel> {
        self.labels_in(structure)
            .filter(|l| l.domain.leaks_to(observer))
            .collect()
    }

    /// All labels currently present in `structure`.
    pub fn footprints(&self, structure: Structure) -> Vec<TaintLabel> {
        self.labels_in(structure).collect()
    }

    /// Current residency of `domain` in the L1, in `[0, 1]`.
    pub fn l1_residency(&self, domain: Domain) -> f64 {
        self.warmth.get(&domain).map(|w| w.l1).unwrap_or(0.0)
    }

    /// Current residency of `domain` in the branch predictor, in `[0, 1]`.
    pub fn bp_residency(&self, domain: Domain) -> f64 {
        self.warmth.get(&domain).map(|w| w.bp).unwrap_or(0.0)
    }

    /// Clears all warmth and taint (power-on reset).
    pub fn reset(&mut self) {
        self.warmth.clear();
        self.taint.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RealmId;

    fn params() -> HwParams {
        HwParams::small()
    }

    const HOST: Domain = Domain::Host;
    const R1: Domain = Domain::Realm(RealmId(1));

    #[test]
    fn structure_masks_are_distinct_bits() {
        let all = Structure::ALL.into_iter().fold(0u8, |acc, s| {
            assert_eq!(acc & s.mask(), 0, "{s:?} shares a bit");
            acc | s.mask()
        });
        assert_eq!(all, (1 << Structure::ALL.len()) - 1);
    }

    #[test]
    fn cold_start_is_max_slowdown() {
        let ua = MicroArch::new();
        let p = params();
        let s = ua.slowdown(HOST, &p);
        assert!((s - p.max_slowdown()).abs() < 1e-9);
    }

    #[test]
    fn compute_warms_up_and_speeds_up() {
        let mut ua = MicroArch::new();
        let p = params();
        let work = SimDuration::micros(200);
        let first = ua.run_compute(R1, work, &p);
        let second = ua.run_compute(R1, work, &p);
        let third = ua.run_compute(R1, work, &p);
        assert!(second < first);
        assert!(third <= second);
        // After plenty of compute, slowdown approaches 1.
        for _ in 0..50 {
            ua.run_compute(R1, work, &p);
        }
        assert!(ua.slowdown(R1, &p) < 1.02);
    }

    #[test]
    fn foreign_compute_evicts_residency() {
        let mut ua = MicroArch::new();
        let p = params();
        for _ in 0..50 {
            ua.run_compute(R1, SimDuration::micros(100), &p);
        }
        let warm = ua.l1_residency(R1);
        ua.run_compute(HOST, SimDuration::micros(300), &p);
        let after = ua.l1_residency(R1);
        assert!(after < warm, "host compute should evict realm working set");
    }

    #[test]
    fn mitigation_flush_clears_bp_but_not_l1() {
        let mut ua = MicroArch::new();
        let p = params();
        for _ in 0..50 {
            ua.run_compute(R1, SimDuration::micros(100), &p);
        }
        assert!(ua.bp_residency(R1) > 0.9);
        let l1_before = ua.l1_residency(R1);
        ua.mitigation_flush();
        assert_eq!(ua.bp_residency(R1), 0.0);
        assert_eq!(ua.l1_residency(R1), l1_before);
    }

    #[test]
    fn compute_taints_all_structures() {
        let mut ua = MicroArch::new();
        let p = params();
        ua.run_compute(R1, SimDuration::micros(10), &p);
        for s in Structure::ALL {
            assert!(
                ua.footprints(s).contains(&TaintLabel::plain(R1)),
                "{s:?} should carry realm footprint"
            );
        }
    }

    #[test]
    fn probe_reveals_only_leaking_labels() {
        let mut ua = MicroArch::new();
        ua.touch(Structure::L1d, TaintLabel::plain(Domain::Monitor));
        ua.touch(Structure::L1d, TaintLabel::plain(R1));
        let seen = ua.probe(Structure::L1d, HOST);
        assert_eq!(seen, vec![TaintLabel::plain(R1)]);
        // The realm probing sees the host? There is no host label, and the
        // monitor label is trusted, so nothing leaks.
        let seen = ua.probe(Structure::Tlb, R1);
        assert!(seen.is_empty());
    }

    #[test]
    fn secret_compute_leaves_secret_footprint() {
        let mut ua = MicroArch::new();
        let p = params();
        let secret = SecretId(99);
        ua.run_secret_compute(R1, secret, SimDuration::micros(5), &p);
        let seen = ua.probe(Structure::FillBuffer, HOST);
        assert!(seen.contains(&TaintLabel::secret(R1, secret)));
    }

    #[test]
    fn mitigation_flush_clears_bp_and_fill_buffer_taint() {
        let mut ua = MicroArch::new();
        let p = params();
        ua.run_secret_compute(R1, SecretId(1), SimDuration::micros(5), &p);
        ua.mitigation_flush();
        assert!(ua.footprints(Structure::BranchPredictor).is_empty());
        assert!(ua.footprints(Structure::FillBuffer).is_empty());
        // Cache/TLB taint survives: mitigations do not flush caches.
        assert!(!ua.footprints(Structure::L1d).is_empty());
        assert!(!ua.footprints(Structure::Tlb).is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut ua = MicroArch::new();
        let p = params();
        ua.run_compute(R1, SimDuration::micros(5), &p);
        ua.reset();
        assert_eq!(ua.l1_residency(R1), 0.0);
        assert!(ua.footprints(Structure::L1d).is_empty());
    }

    /// Everything observable about a core's state, bit for bit.
    fn state_bits(ua: &MicroArch) -> Vec<(Domain, [u64; 3])> {
        ua.warmth
            .iter()
            .map(|(d, w)| (*d, [w.l1.to_bits(), w.tlb.to_bits(), w.bp.to_bits()]))
            .collect()
    }

    #[test]
    fn applied_lookahead_matches_single_chunks() {
        let p = params();
        let mut single = MicroArch::new();
        single.run_compute(HOST, SimDuration::micros(30), &p);
        single.run_fixed(Domain::Monitor, SimDuration::nanos(700), &p);
        single.run_compute(R1, SimDuration::nanos(1_500), &p);
        let mut ahead = ComputeLookahead::default();
        single.start_lookahead(R1, &mut ahead);
        let work = SimDuration::micros(100);
        let walls: Vec<_> = (0..40).map(|_| ahead.next_wall(work, &p)).collect();
        let mut applied = single.clone();
        for &wall in &walls[..25] {
            assert_eq!(single.run_compute(R1, work, &p), wall);
        }
        applied.apply_lookahead(&ahead, 25);
        assert_eq!(state_bits(&applied), state_bits(&single));
        assert_eq!(
            applied.footprints(Structure::L1d),
            single.footprints(Structure::L1d)
        );
        // Zero chunks change nothing.
        applied.apply_lookahead(&ahead, 0);
        assert_eq!(state_bits(&applied), state_bits(&single));
    }

    #[test]
    fn gpc_factor_increases_tlb_cost() {
        let mut p = params();
        let ua = MicroArch::new();
        let base = ua.slowdown(R1, &p);
        p.gpc_check_factor = 0.5;
        let with_gpc = ua.slowdown(R1, &p);
        assert!(with_gpc > base);
    }
}
