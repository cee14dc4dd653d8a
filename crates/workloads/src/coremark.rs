//! CoreMark-PRO: the CPU-intensive workload of figs. 6/7 and table 4.
//!
//! Modelled as a fixed-size work unit repeated on every vCPU. The real
//! benchmark reports a score proportional to iterations per second; the
//! experiment harness computes the same from
//! [`CoremarkPro::iterations`].

use cg_sim::{SimDuration, SimTime};

use crate::guest::{GuestIrq, GuestOp, WorkloadStats};
use crate::kernel::AppLogic;

/// The CoreMark-PRO application model.
#[derive(Debug)]
pub struct CoremarkPro {
    iterations: Vec<u64>,
    /// Ideal compute time per work unit.
    unit: SimDuration,
}

impl CoremarkPro {
    /// Creates the workload for `num_vcpus` workers with the given work
    /// unit (100 µs is a good fidelity/speed trade-off: fine enough that
    /// tick interference is visible, coarse enough to keep event counts
    /// low).
    pub fn new(num_vcpus: u32, unit: SimDuration) -> CoremarkPro {
        CoremarkPro {
            iterations: vec![0; num_vcpus as usize],
            unit,
        }
    }

    /// Completed iterations per vCPU.
    pub fn iterations(&self) -> &[u64] {
        &self.iterations
    }

    /// Total completed iterations.
    pub fn total_iterations(&self) -> u64 {
        self.iterations.iter().sum()
    }

    /// The per-iteration ideal work.
    pub fn unit(&self) -> SimDuration {
        self.unit
    }

    /// The benchmark score for a run of `elapsed`: work-unit completions
    /// per second (the paper's score is an arbitrary linear scale; shapes
    /// are what matter).
    pub fn score(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.total_iterations() as f64 / elapsed.as_secs_f64()
    }
}

impl AppLogic for CoremarkPro {
    fn next_op(&mut self, vcpu: u32, _now: SimTime) -> GuestOp {
        // `next_op` is called again only after the previous unit fully
        // completed, so counting here counts *completed* units (the first
        // call over-counts by one; corrected in `stats`).
        self.iterations[vcpu as usize] += 1;
        GuestOp::Compute { work: self.unit }
    }

    fn on_irq(&mut self, _vcpu: u32, _irq: GuestIrq, _now: SimTime) {}

    /// Every op is a unit of compute, forever, and vCPUs share nothing.
    fn peek_compute(&self, _vcpu: u32, _now: SimTime) -> Option<(SimDuration, SimTime)> {
        Some((self.unit, SimTime::MAX))
    }

    fn commit_compute(&mut self, vcpu: u32, n: u64) {
        self.iterations[vcpu as usize] += n;
    }

    fn stats(&self) -> WorkloadStats {
        let mut stats = WorkloadStats::new();
        for (i, &iters) in self.iterations.iter().enumerate() {
            stats.counters.add(
                &format!("coremark.vcpu{i}.iterations"),
                iters.saturating_sub(1),
            );
        }
        stats
            .counters
            .add("coremark.total_iterations", self.adjusted_total());
        stats
    }
}

impl CoremarkPro {
    fn adjusted_total(&self) -> u64 {
        self.iterations.iter().map(|&i| i.saturating_sub(1)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest::GuestProgram;
    use crate::kernel::GuestKernel;

    #[test]
    fn yields_compute_units_and_counts() {
        let mut cm = CoremarkPro::new(2, SimDuration::micros(100));
        for _ in 0..5 {
            assert!(matches!(
                cm.next_op(0, SimTime::ZERO),
                GuestOp::Compute { work } if work == SimDuration::micros(100)
            ));
        }
        cm.next_op(1, SimTime::ZERO);
        assert_eq!(cm.iterations(), &[5, 1]);
        assert_eq!(cm.total_iterations(), 6);
    }

    #[test]
    fn stats_subtract_in_flight_unit() {
        let mut cm = CoremarkPro::new(1, SimDuration::micros(100));
        for _ in 0..5 {
            cm.next_op(0, SimTime::ZERO);
        }
        // 5 calls = 4 completed + 1 in flight.
        assert_eq!(cm.stats().counters.get("coremark.total_iterations"), 4);
    }

    #[test]
    fn commit_equals_repeated_next_op_under_the_kernel() {
        let kernel = |console| {
            let cm = CoremarkPro::new(2, SimDuration::micros(100));
            GuestKernel::new(2, 250, Box::new(cm)).with_console_writes(console)
        };
        let console = SimDuration::millis(2);
        let t0 = SimTime::from_nanos(1_000);
        let (mut stepped, mut committed) = (kernel(console), kernel(console));
        for g in [&mut stepped, &mut committed] {
            for vcpu in 0..2 {
                g.next_op(vcpu, t0); // arm the tick
                g.next_op(vcpu, t0); // start the console schedule
            }
        }
        let (work, until) = committed.peek_compute(1, t0).expect("plain compute");
        assert_eq!(work, SimDuration::micros(100));
        // vCPU 1's first console write is due at t0 + 2 ms + 1 ns.
        assert_eq!(until, t0 + SimDuration::millis(2) + SimDuration::nanos(1));
        let mut t = t0;
        let mut n = 0;
        while t < until {
            assert_eq!(stepped.next_op(1, t), GuestOp::Compute { work });
            t += work;
            n += 1;
        }
        committed.commit_compute(1, n);
        assert_eq!(
            committed.stats().counters.get("coremark.vcpu1.iterations"),
            stepped.stats().counters.get("coremark.vcpu1.iterations")
        );
        // The op after the promise runs out is the console write.
        assert_eq!(committed.peek_compute(1, until), None);
        assert_eq!(committed.next_op(1, until), GuestOp::ConsoleWrite);
    }

    #[test]
    fn score_is_iterations_per_second() {
        let mut cm = CoremarkPro::new(1, SimDuration::micros(100));
        for _ in 0..1000 {
            cm.next_op(0, SimTime::ZERO);
        }
        let score = cm.score(SimDuration::secs(2));
        assert!((score - 500.0).abs() < 1e-9);
        assert_eq!(cm.score(SimDuration::ZERO), 0.0);
    }
}
