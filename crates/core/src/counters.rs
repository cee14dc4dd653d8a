//! Typed registry of the system's named counters.
//!
//! The simulation increments flat string-keyed [`cg_sim::Counters`] all
//! over the codebase. This module is the single place that knows what
//! those names *mean*: which execution plane each counter belongs to
//! and a one-line description. Reports group their counter exports by
//! plane through [`group_by_plane`], and a registry test pins every
//! entry's prefix so a renamed counter cannot silently drift out of
//! its plane.
//!
//! Counters not listed here still work — workloads mint ad-hoc names —
//! and classify by prefix via [`plane_of`]'s fallback rules.

use cg_sim::Counters;

/// The execution plane a counter measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CounterPlane {
    /// Cross-core run-call RPC: channels, doorbells, retries, wake-ups.
    Rpc,
    /// Shared-memory virtio fast path: rings, kicks, completions.
    Virtio,
    /// Inter-CVM channels: publishes, doorbells, drains.
    Ivc,
    /// RMM-side work: REC entries, delegation, IVC policy.
    Rmm,
    /// Host OS / KVM / device plumbing outside the planes above.
    Host,
    /// Fault-injection outcomes (what the fault plan actually did).
    Fault,
    /// Attack and measurement machinery.
    Attack,
    /// Guest workload progress counters.
    Workload,
    /// Everything else (setup, lifecycle, kernel ticks).
    System,
}

impl CounterPlane {
    /// Every plane, in report order.
    pub const ALL: [CounterPlane; 9] = [
        CounterPlane::Rpc,
        CounterPlane::Virtio,
        CounterPlane::Ivc,
        CounterPlane::Rmm,
        CounterPlane::Host,
        CounterPlane::Fault,
        CounterPlane::Attack,
        CounterPlane::Workload,
        CounterPlane::System,
    ];

    /// Stable lower-case label used in exports.
    pub fn name(self) -> &'static str {
        match self {
            CounterPlane::Rpc => "rpc",
            CounterPlane::Virtio => "virtio",
            CounterPlane::Ivc => "ivc",
            CounterPlane::Rmm => "rmm",
            CounterPlane::Host => "host",
            CounterPlane::Fault => "fault",
            CounterPlane::Attack => "attack",
            CounterPlane::Workload => "workload",
            CounterPlane::System => "system",
        }
    }
}

/// One registered counter: its name, plane, and meaning.
#[derive(Debug, Clone, Copy)]
pub struct CounterDef {
    /// The exact key passed to [`cg_sim::Counters::incr`].
    pub name: &'static str,
    /// The plane the counter measures.
    pub plane: CounterPlane,
    /// One-line description.
    pub help: &'static str,
}

const fn def(name: &'static str, plane: CounterPlane, help: &'static str) -> CounterDef {
    CounterDef { name, plane, help }
}

/// The registry: every counter the *system* (as opposed to ad-hoc
/// workload code) increments, sorted by name.
pub static REGISTRY: &[CounterDef] = &[
    def(
        "attack.probes",
        CounterPlane::Attack,
        "microarchitectural probe measurements taken",
    ),
    def(
        "chan.aborts",
        CounterPlane::Rpc,
        "run-call channels force-reset on teardown",
    ),
    def(
        "fault.completion_irq_dropped",
        CounterPlane::Fault,
        "delegated completion interrupts eaten after the used-ring post",
    ),
    def(
        "fault.doorbell_delayed",
        CounterPlane::Fault,
        "exit doorbell IPIs delayed in flight",
    ),
    def(
        "fault.doorbell_dropped",
        CounterPlane::Fault,
        "exit doorbell IPIs lost after the latch was set",
    ),
    def(
        "fault.frontend_stalls",
        CounterPlane::Fault,
        "serving front-end stall windows injected",
    ),
    def(
        "fault.host_stalls",
        CounterPlane::Fault,
        "host-side scheduling stalls injected",
    ),
    def(
        "fault.ivc_doorbell_dropped",
        CounterPlane::Fault,
        "inter-CVM doorbell SPIs dropped",
    ),
    def(
        "fault.ivc_doorbell_duplicated",
        CounterPlane::Fault,
        "inter-CVM doorbell SPIs delivered twice",
    ),
    def(
        "fault.ivc_doorbell_forged",
        CounterPlane::Fault,
        "inter-CVM doorbell SPIs misrouted to a non-endpoint",
    ),
    def(
        "fault.request_bursts",
        CounterPlane::Fault,
        "request-burst arrivals injected at the front-end",
    ),
    def(
        "fault.request_wedged",
        CounterPlane::Fault,
        "run-request poll notices suppressed",
    ),
    def(
        "fault.response_delayed",
        CounterPlane::Fault,
        "response cache-line visibility held back",
    ),
    def(
        "fleet.admitted",
        CounterPlane::Host,
        "requests admitted by the serving front-end",
    ),
    def(
        "fleet.completed",
        CounterPlane::Host,
        "admitted requests whose response reached the sink",
    ),
    def(
        "fleet.latency_total_us",
        CounterPlane::Host,
        "sum of completed-request latencies (µs)",
    ),
    def(
        "fleet.migrations",
        CounterPlane::Host,
        "tenants live-migrated by the rebalancer",
    ),
    def(
        "fleet.migrations_aborted",
        CounterPlane::Host,
        "rebalancing migrations aborted and resumed on source",
    ),
    def(
        "fleet.migrations_failed",
        CounterPlane::Host,
        "rebalancing migrations refused outright",
    ),
    def(
        "fleet.offered",
        CounterPlane::Host,
        "requests offered to the serving front-end",
    ),
    def(
        "fleet.resize_down",
        CounterPlane::Host,
        "elastic scale-downs applied by the SLO tracker",
    ),
    def(
        "fleet.resize_up",
        CounterPlane::Host,
        "elastic scale-ups applied by the SLO tracker",
    ),
    def(
        "fleet.shed",
        CounterPlane::Host,
        "requests shed by the front-end (all reasons)",
    ),
    def(
        "fleet.shed.backpressure",
        CounterPlane::Host,
        "requests shed to node-wide ring backpressure",
    ),
    def(
        "fleet.shed.frontend_stalled",
        CounterPlane::Host,
        "requests dropped during an injected front-end stall",
    ),
    def(
        "fleet.shed.queue_full",
        CounterPlane::Host,
        "requests shed at the tenant queue-depth cap",
    ),
    def(
        "fleet.shed.rate_limited",
        CounterPlane::Host,
        "requests shed by the tenant token bucket",
    ),
    def(
        "fleet.shed.tenant_unavailable",
        CounterPlane::Host,
        "requests shed during a tenant migration blackout",
    ),
    def(
        "fleet.slo_met",
        CounterPlane::Host,
        "completions within the tenant's latency SLO",
    ),
    def(
        "fleet.slo_missed",
        CounterPlane::Host,
        "completions past the tenant's latency SLO",
    ),
    def(
        "host.harass_kicks",
        CounterPlane::Host,
        "malicious-host forced-exit kicks",
    ),
    def(
        "host.kicks",
        CounterPlane::Host,
        "vCPU kicks issued by the host",
    ),
    def(
        "io.poll_empty",
        CounterPlane::Virtio,
        "I/O-thread poll iterations that found no work",
    ),
    def(
        "io.polls",
        CounterPlane::Virtio,
        "I/O-thread poll iterations",
    ),
    def(
        "io.suspend_races",
        CounterPlane::Virtio,
        "I/O-thread suspend decisions raced by new work",
    ),
    def(
        "io.watchdog_kicks",
        CounterPlane::Virtio,
        "I/O threads re-activated by the watchdog",
    ),
    def(
        "io.watchdog_recovered",
        CounterPlane::Virtio,
        "stranded used-ring completions re-announced",
    ),
    def(
        "io.watchdog_scans",
        CounterPlane::Virtio,
        "I/O watchdog rescans",
    ),
    def("ipi.delivered", CounterPlane::Host, "IPIs delivered"),
    def("ipi.received", CounterPlane::Host, "IPIs acknowledged"),
    def("ipi.sent", CounterPlane::Host, "IPIs sent"),
    def(
        "ivc.doorbells_sent",
        CounterPlane::Ivc,
        "inter-CVM doorbell SPIs rung",
    ),
    def(
        "ivc.doorbells_suppressed",
        CounterPlane::Ivc,
        "inter-CVM doorbells coalesced by the decision window",
    ),
    def(
        "ivc.messages_drained",
        CounterPlane::Ivc,
        "inter-CVM messages drained by consumers",
    ),
    def(
        "ivc.messages_sent",
        CounterPlane::Ivc,
        "inter-CVM messages published",
    ),
    def(
        "ivc.ring_full",
        CounterPlane::Ivc,
        "inter-CVM publishes dropped to backpressure",
    ),
    def(
        "ivc.send_unconnected",
        CounterPlane::Ivc,
        "sends on channels the vCPU is no endpoint of",
    ),
    def(
        "ivc.watchdog_recovered",
        CounterPlane::Ivc,
        "stranded inter-CVM rings re-rung",
    ),
    def(
        "net.napi_rx",
        CounterPlane::Host,
        "inbound packets picked up by NAPI polling",
    ),
    def(
        "net.sriov_tx",
        CounterPlane::Host,
        "packets sent directly via an SR-IOV VF",
    ),
    def(
        "rmm.delegated_ipi_sent",
        CounterPlane::Rmm,
        "realm-to-realm IPIs sent without host transit",
    ),
    def(
        "rmm.rec_enter",
        CounterPlane::Rmm,
        "REC_ENTER calls on the dedicated cores",
    ),
    def(
        "rmm.response_reposts",
        CounterPlane::Rmm,
        "response visibility refreshes on retry",
    ),
    def(
        "rpc.doorbell_ipis",
        CounterPlane::Rpc,
        "exit doorbell IPIs actually sent",
    ),
    def(
        "rpc.doorbell_rings",
        CounterPlane::Rpc,
        "exit doorbell ring attempts (pre-coalescing)",
    ),
    def("rpc.retries", CounterPlane::Rpc, "run-call retry decisions"),
    def(
        "rpc.retries_exhausted",
        CounterPlane::Rpc,
        "retry budgets exhausted (escalated to sync)",
    ),
    def(
        "rpc.run_calls",
        CounterPlane::Rpc,
        "asynchronous run calls issued",
    ),
    def(
        "rpc.stale_run_notice",
        CounterPlane::Rpc,
        "duplicate/stale run-request notices dropped",
    ),
    def(
        "rpc.timeout_stale",
        CounterPlane::Rpc,
        "call timeouts that arrived after completion",
    ),
    def("system.pauses", CounterPlane::System, "VM lifecycle pauses"),
    def(
        "system.resumes",
        CounterPlane::System,
        "VM lifecycle resumes",
    ),
    def(
        "system.vms_destroyed",
        CounterPlane::System,
        "VMs torn down",
    ),
    def(
        "virtio.completions",
        CounterPlane::Virtio,
        "used-ring completions posted",
    ),
    def(
        "virtio.doorbell_ipis",
        CounterPlane::Virtio,
        "fast-path kick doorbell IPIs actually sent",
    ),
    def(
        "virtio.doorbell_rings",
        CounterPlane::Virtio,
        "fast-path kick ring attempts (pre-coalescing)",
    ),
    def(
        "virtio.irqs",
        CounterPlane::Virtio,
        "delegated completion interrupts raised",
    ),
    def(
        "virtio.irqs_suppressed",
        CounterPlane::Virtio,
        "completion interrupts suppressed by EVENT_IDX",
    ),
    def(
        "virtio.kicks",
        CounterPlane::Virtio,
        "submission kicks that rang the doorbell",
    ),
    def(
        "virtio.kicks_suppressed",
        CounterPlane::Virtio,
        "submission kicks coalesced by EVENT_IDX",
    ),
    def(
        "virtio.ring_full",
        CounterPlane::Virtio,
        "fast-path publishes bounced to the exit path",
    ),
    def(
        "wakeup.watchdog_recovered",
        CounterPlane::Rpc,
        "stranded posted exits found by the watchdog",
    ),
    def(
        "wakeup.watchdog_scans",
        CounterPlane::Rpc,
        "wake-up watchdog rescans",
    ),
];

/// Looks up a registered counter by exact name.
pub fn lookup(name: &str) -> Option<&'static CounterDef> {
    REGISTRY
        .binary_search_by(|d| d.name.cmp(name))
        .ok()
        .map(|i| &REGISTRY[i])
}

/// Classifies a counter name into its plane: by registry entry when
/// registered, by name prefix otherwise. Every name classifies — the
/// final fallback is [`CounterPlane::Workload`], where ad-hoc guest
/// progress counters live.
pub fn plane_of(name: &str) -> CounterPlane {
    if let Some(d) = lookup(name) {
        return d.plane;
    }
    for (prefix, plane) in [
        ("rpc.", CounterPlane::Rpc),
        ("chan.", CounterPlane::Rpc),
        ("wakeup.", CounterPlane::Rpc),
        ("virtio.", CounterPlane::Virtio),
        ("io.", CounterPlane::Virtio),
        ("ivc.", CounterPlane::Ivc),
        ("rmm.", CounterPlane::Rmm),
        ("rsi.", CounterPlane::Rmm),
        ("host.", CounterPlane::Host),
        ("kvm.", CounterPlane::Host),
        ("ipi.", CounterPlane::Host),
        ("net.", CounterPlane::Host),
        ("fault.", CounterPlane::Fault),
        ("faultstorm.", CounterPlane::Fault),
        ("fleet.", CounterPlane::Host),
        ("attack.", CounterPlane::Attack),
        ("attacker.", CounterPlane::Attack),
        ("victim.", CounterPlane::Attack),
        ("setup.", CounterPlane::System),
        ("system.", CounterPlane::System),
        ("kernel.", CounterPlane::System),
    ] {
        if name.starts_with(prefix) {
            return plane;
        }
    }
    CounterPlane::Workload
}

/// Groups a counter set by plane, preserving name order within each
/// plane and plane order per [`CounterPlane::ALL`]. Planes with no
/// counters are omitted.
pub fn group_by_plane(counters: &Counters) -> Vec<(CounterPlane, Vec<(&str, u64)>)> {
    let mut groups: Vec<(CounterPlane, Vec<(&str, u64)>)> = Vec::new();
    for plane in CounterPlane::ALL {
        let entries: Vec<(&str, u64)> = counters
            .iter()
            .filter(|(name, _)| plane_of(name) == plane)
            .collect();
        if !entries.is_empty() {
            groups.push((plane, entries));
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in REGISTRY.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "registry out of order at {} / {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn registry_planes_agree_with_prefix_rules() {
        // A registered counter whose name prefix maps elsewhere is a
        // drift bug waiting to happen: delete the entry or fix the name.
        for d in REGISTRY {
            let by_name = plane_of(d.name);
            assert_eq!(
                by_name, d.plane,
                "{} registered under {:?} but classifies as {:?}",
                d.name, d.plane, by_name
            );
        }
    }

    #[test]
    fn lookup_finds_registered_names() {
        assert_eq!(lookup("rpc.retries").unwrap().plane, CounterPlane::Rpc);
        assert!(lookup("no.such.counter").is_none());
    }

    #[test]
    fn grouping_partitions_all_counters() {
        let mut c = Counters::new();
        c.incr("rpc.retries");
        c.incr("virtio.kicks");
        c.incr("ivc.messages_sent");
        c.incr("redis.served");
        let groups = group_by_plane(&c);
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 4);
        assert_eq!(groups[0].0, CounterPlane::Rpc);
        assert!(groups
            .iter()
            .any(|(p, v)| *p == CounterPlane::Workload && v[0].0 == "redis.served"));
    }
}
