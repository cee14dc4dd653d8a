//! The guest-program interface: operations, interrupts, statistics.

use std::collections::BTreeMap;
use std::fmt;

use cg_machine::SecretId;
use cg_sim::{Counters, Samples, SimDuration, SimTime};

/// An architectural operation a guest vCPU performs next.
///
/// The system layer interprets each op: `Compute` runs on the core
/// through the warmth model (and may be interrupted), timer/IPI ops trap
/// to the RMM, I/O ops go through the device model (virtio kicks exit to
/// the host; SR-IOV sends are exit-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestOp {
    /// Application/kernel compute: `work` of ideal (fully warm) time.
    Compute {
        /// Ideal compute time.
        work: SimDuration,
    },
    /// Secret-dependent compute (used by attack-scenario victims): same
    /// semantics, but footprints carry the secret taint.
    SecretCompute {
        /// Ideal compute time.
        work: SimDuration,
        /// The secret involved.
        secret: SecretId,
    },
    /// Program the virtual timer (the guest tick).
    ProgramTick {
        /// Absolute expiry time.
        deadline: SimTime,
    },
    /// Send an SGI to another vCPU of the same VM.
    SendIpi {
        /// Target vCPU index.
        target: u32,
        /// SGI number (0–15).
        sgi: u32,
    },
    /// Wait for interrupt.
    Wfi,
    /// Queue a network transmit on device `device` (guest-relative
    /// device index). Virtio devices kick (exit); SR-IOV does not.
    NetSend {
        /// Guest device index.
        device: u32,
        /// Bytes on the wire.
        bytes: u64,
        /// Flow tag for matching request/response.
        flow: u64,
    },
    /// Submit a disk read of `bytes` (virtio-blk).
    DiskRead {
        /// Guest device index.
        device: u32,
        /// Transfer size.
        bytes: u64,
        /// Completion tag.
        tag: u64,
    },
    /// Submit a disk write of `bytes` (virtio-blk).
    DiskWrite {
        /// Guest device index.
        device: u32,
        /// Transfer size.
        bytes: u64,
        /// Completion tag.
        tag: u64,
    },
    /// A console/diagnostic MMIO write — the background exit source.
    ConsoleWrite,
    /// Probe the core's microarchitectural structures (and the shared
    /// LLC) for foreign footprints — the attacker primitive
    /// (prime+probe / MDS-style sampling collapsed to its effect).
    Probe,
    /// Touch an unmapped shared (unprotected) page, causing a stage-2
    /// fault the host must resolve (e.g. growing a virtio ring or a
    /// ballooned region).
    TouchShared {
        /// The faulting guest-physical address.
        ipa: u64,
    },
    /// Write a protected data page in place (no exit, no fault): the
    /// op dirty-tracking sees. Workloads use it to model a write-heavy
    /// working set during live migration.
    DirtyWrite {
        /// The guest-physical address written.
        ipa: u64,
    },
    /// Publish a message into an attested inter-CVM channel's ring and
    /// (unless the peer suppressed notifications) ring the channel
    /// doorbell SGI straight to the peer realm's core — no host exit.
    IvcSend {
        /// Channel identifier (as paired at build time).
        channel: u32,
        /// Payload size.
        bytes: u64,
        /// Producer-assigned sequence number.
        seq: u64,
    },
    /// Power off this vCPU.
    Shutdown,
}

/// A virtual interrupt (or completion) delivered to the guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestIrq {
    /// The timer tick fired.
    Tick,
    /// An SGI from another vCPU.
    Ipi {
        /// SGI number.
        sgi: u32,
    },
    /// A network packet arrived.
    NetRx {
        /// Guest device index.
        device: u32,
        /// Payload size.
        bytes: u64,
        /// Flow tag.
        flow: u64,
    },
    /// A disk request completed.
    DiskDone {
        /// Guest device index.
        device: u32,
        /// The request's tag.
        tag: u64,
    },
    /// A message drained from an attested inter-CVM channel's ring
    /// (after the channel doorbell or a watchdog rescan).
    IvcRecv {
        /// Channel identifier.
        channel: u32,
        /// Payload size.
        bytes: u64,
        /// Producer-assigned sequence number.
        seq: u64,
    },
}

/// Statistics a workload exposes at the end of a run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadStats {
    /// Named counters (iterations completed, requests served, …).
    pub counters: Counters,
    /// Named sample sets (latencies in microseconds, …).
    pub samples: BTreeMap<String, Samples>,
}

impl WorkloadStats {
    /// Creates empty statistics.
    pub fn new() -> WorkloadStats {
        WorkloadStats::default()
    }

    /// Records a sample under `name`.
    pub fn record_sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// The sample set `name`, if recorded.
    pub fn sample(&self, name: &str) -> Option<&Samples> {
        self.samples.get(name)
    }
}

/// A complete guest: the state machine the system layer drives.
///
/// Contract: `next_op` is called whenever vCPU `vcpu` is able to make
/// progress — after entry, and after the previous op fully completed.
/// Interrupts arrive via `on_irq` at op boundaries (in-flight compute is
/// transparently resumed by the driver). A vCPU that returned
/// [`GuestOp::Wfi`] gets its next `next_op` call after the next
/// interrupt.
pub trait GuestProgram: fmt::Debug {
    /// The next operation for `vcpu`.
    fn next_op(&mut self, vcpu: u32, now: SimTime) -> GuestOp;

    /// A virtual interrupt was delivered to `vcpu`.
    fn on_irq(&mut self, vcpu: u32, irq: GuestIrq, now: SimTime);

    /// Final workload statistics.
    fn stats(&self) -> WorkloadStats;

    /// Side-effect-free lookahead for the execution engine's fast tier.
    ///
    /// `Some((work, until))` promises that, until `on_irq` is next
    /// called for `vcpu`, every `next_op(vcpu, t)` call with
    /// `now <= t < until` returns `GuestOp::Compute { work }` and changes
    /// no state beyond what [`GuestProgram::commit_compute`] reproduces —
    /// whatever the other vCPUs do meanwhile. The default makes no
    /// promise.
    fn peek_compute(&self, _vcpu: u32, _now: SimTime) -> Option<(SimDuration, SimTime)> {
        None
    }

    /// Applies the effect of `n` `next_op` calls covered by a
    /// [`GuestProgram::peek_compute`] promise, in one step.
    ///
    /// # Panics
    ///
    /// The default panics for `n > 0`: a program that promises nothing
    /// is never asked to commit.
    fn commit_compute(&mut self, _vcpu: u32, n: u64) {
        assert_eq!(n, 0, "commit_compute without a peek_compute promise");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut s = WorkloadStats::new();
        s.counters.add("iters", 5);
        s.record_sample("latency_us", 1.5);
        s.record_sample("latency_us", 2.5);
        assert_eq!(s.counters.get("iters"), 5);
        assert_eq!(s.sample("latency_us").unwrap().len(), 2);
        assert!(s.sample("missing").is_none());
    }
}
