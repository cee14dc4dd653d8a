//! What a workload run records about itself: set-up spans, run slices,
//! structured-trace tallies, simulated-time spans and plane counters.
//!
//! Everything here is read from outside the simulator through public
//! API: trace records are drained from a [`TraceOptions::structured_ring`]
//! after every slice, spans come from an attached [`Obs::spans`]
//! profiler, and counters are read from [`System::metrics`].

use std::collections::BTreeMap;

use cg_core::{Obs, System, TraceOptions};
use cg_sim::{TraceHandle, TraceKind};

use crate::host::{Span, Stopwatch};

/// The 14 `SystemEvent` kinds, in declaration order. An `EventPop`
/// record's detail is the event's `Debug` form, so its leading word
/// names the kind.
pub const EVENT_KINDS: [&str; 14] = [
    "SegmentEnd",
    "CallTimeout",
    "PhysTimerFire",
    "IpiArrive",
    "DeviceIrqArrive",
    "RunRequestVisible",
    "EmulTimerFire",
    "WireToPeer",
    "WireToGuest",
    "HarassTick",
    "ObsSample",
    "WatchdogTick",
    "DefragTick",
    "DiskDone",
];

/// Plane counters summed over every `System` a run builds (read from
/// `System::metrics().counters`).
pub const PLANE_COUNTERS: [&str; 16] = [
    "rpc.run_calls",
    "rpc.doorbell_ipis",
    "rpc.timeout_serving",
    "rmm.rec_enter",
    "virtio.kicks",
    "virtio.kicks_suppressed",
    "virtio.irqs",
    "virtio.irqs_suppressed",
    "io.polls",
    "io.poll_empty",
    "system.vms_destroyed",
    "fleet.offered",
    "fleet.admitted",
    "fleet.shed",
    "fleet.resize_up",
    "fleet.migrations",
];

/// Live rebinds, counted as the `Metrics::rebind_us` samples.
pub const REBINDS: &str = "elastic.rebinds";

/// Simulated-time span labels counted in the traced run (the profiler's
/// span kinds, less the IVC ones no workload exercises).
pub const SPAN_LABELS: [&str; 16] = [
    "exit.roundtrip",
    "exit.handle",
    "rpc.request",
    "rpc.response",
    "rpc.retry",
    "world.switch",
    "sched.slice",
    "timer.delegated_fire",
    "wakeup.scan",
    "wakeup.watchdog_scan",
    "virtio.kick",
    "virtio.backend",
    "virtio.complete",
    "virtio.drain",
    "io.poll",
    "rmm.inject",
];

/// Retained records per drain; a slice that fills the ring may have
/// evicted records and fails the run.
const RING_CAPACITY: usize = 1 << 21;

/// Structured-trace record counts.
#[derive(Debug, Default)]
pub struct Tally {
    pub events: u64,
    pub by_kind: [u64; 14],
    pub sched: u64,
    pub irq: u64,
    pub rpc: u64,
    pub timer: u64,
}

/// Per-run observation state handed to a workload.
#[derive(Debug)]
pub struct Instrument {
    /// Record the structured trace and spans.
    traced: bool,
    obs: Obs,
    /// One span per `System`/`Cluster` built and populated.
    pub setup: Vec<Span>,
    /// One span per slice, in run order: the same sequence of slices in
    /// every repeat of one workload and seed.
    pub slices: Vec<Span>,
    slice_watch: Option<Stopwatch>,
    pub tally: Tally,
    pub counters: BTreeMap<&'static str, u64>,
    /// Simulated seconds covered, summed over every `System` built.
    pub sim_s: f64,
    /// Problems found while observing (trace ring overflow).
    pub errors: Vec<String>,
}

impl Instrument {
    pub fn new(traced: bool) -> Instrument {
        Instrument {
            traced,
            obs: if traced {
                Obs::spans()
            } else {
                Obs::disabled()
            },
            setup: Vec::new(),
            slices: Vec::new(),
            slice_watch: None,
            tally: Tally::default(),
            counters: PLANE_COUNTERS
                .iter()
                .chain([&REBINDS])
                .map(|&c| (c, 0))
                .collect(),
            sim_s: 0.0,
            errors: Vec::new(),
        }
    }

    /// Runs and times one set-up step.
    pub fn setup<T>(&mut self, build: impl FnOnce(&Instrument) -> T) -> T {
        let watch = Stopwatch::start();
        let built = build(self);
        self.setup.push(watch.stop());
        built
    }

    /// Prepares a freshly built system: when traced, a structured ring
    /// and the span profiler. A no-op otherwise.
    pub fn attach(&self, system: &mut System) {
        if self.traced {
            system.configure_trace(TraceOptions::new().structured_ring(RING_CAPACITY));
            system.attach_obs(&self.obs);
        }
    }

    /// Marks the start of a slice.
    pub fn slice_begin(&mut self) {
        self.slice_watch = Some(Stopwatch::start());
    }

    /// Ends a slice: records its host time, then (when traced) drains the
    /// trace rings of `systems`.
    pub fn slice_end<'a>(&mut self, systems: impl IntoIterator<Item = &'a System>) {
        if let Some(watch) = self.slice_watch.take() {
            self.slices.push(watch.stop());
        }
        if self.traced {
            for s in systems {
                self.drain(&s.structured_trace());
            }
        }
    }

    fn drain(&mut self, handle: &TraceHandle) {
        if handle.len() >= RING_CAPACITY {
            self.errors
                .push("trace ring filled within one slice; records were evicted".to_owned());
        }
        for r in handle.snapshot() {
            match r.kind {
                TraceKind::EventPop => {
                    self.tally.events += 1;
                    let name = r
                        .detail
                        .split(|c: char| !c.is_ascii_alphanumeric())
                        .next()
                        .unwrap_or("");
                    // A kind added after this list counts in the total only.
                    if let Some(i) = EVENT_KINDS.iter().position(|&k| k == name) {
                        self.tally.by_kind[i] += 1;
                    }
                }
                TraceKind::Sched => self.tally.sched += 1,
                TraceKind::Irq => self.tally.irq += 1,
                TraceKind::Rpc => self.tally.rpc += 1,
                TraceKind::Timer => self.tally.timer += 1,
                TraceKind::Mark => {}
            }
        }
        handle.clear();
    }

    /// Folds a system's plane counters and simulated time into the run
    /// totals; call once per system, when it is done.
    pub fn absorb(&mut self, system: &System) {
        let m = system.metrics();
        for name in PLANE_COUNTERS {
            *self.counters.entry(name).or_default() += m.counters.get(name);
        }
        *self.counters.entry(REBINDS).or_default() += m.rebind_us.len() as u64;
        self.sim_s += system.now().as_secs_f64();
    }

    /// Closed-span counts per label, over every system attached.
    pub fn span_counts(&self) -> BTreeMap<&'static str, u64> {
        let stats = self.obs.profiler.label_stats();
        SPAN_LABELS
            .iter()
            .map(|&l| (l, stats.get(l).map_or(0, |s| s.count())))
            .collect()
    }
}
