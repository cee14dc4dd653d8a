//! The four workloads, each driven through `cg-core`'s public API.
//!
//! Inputs are generated from the seed before any timing starts
//! ([`Inputs::generate`]); the simulator only ever sees the generated
//! schedules, tenant specs and seeds. A run returns its simulated
//! outputs and determinism fingerprint ([`Outcome`]) plus whatever its
//! [`Instrument`] recorded.

use cg_core::cluster::Cluster;
use cg_core::fleet::{FleetDriver, FleetPolicy, TenantSpec};
use cg_core::{System, SystemConfig, VmId, VmSpec};
use cg_host::{AdmissionPolicy, DeviceKind};
use cg_sim::{Samples, SimDuration, SimTime};
use cg_workloads::churn::{ChurnAction, ChurnSchedule};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;
use cg_workloads::peer::RedisClientPool;
use cg_workloads::redis::{RedisCommand, RedisServer};
use cg_workloads::service::ServiceProfile;

use crate::instrument::Instrument;

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 4] = [
    "coremark_gapped",
    "redis_virtio",
    "tenant_churn",
    "fleet_overload",
];

// A run is a fixed sequence of slices (1 ms of simulated time, one
// churn action, one fleet epoch), each timed on its own; see
// `Instrument::slice_begin`.

/// `coremark_gapped`: simulated span and slice.
const COREMARK_SPAN: SimDuration = SimDuration::millis(200);
const COREMARK_SLICE: SimDuration = SimDuration::millis(1);
const COREMARK_CORES: u16 = 64;
/// Range of the per-vCPU console-write period, drawn from the seed.
const COREMARK_CONSOLE_MS: (u64, u64) = (50, 90);

/// `redis_virtio`: closed-loop GET requests completed per run.
const REDIS_REQUESTS: u64 = 10_000;
/// Range of the client count, drawn from the seed around the paper's 50
/// (GET latency in the closed loop grows with it; object size does not
/// move it).
const REDIS_CLIENTS: (u32, u32) = (46, 54);
const REDIS_OBJECT_BYTES: u64 = 512;
const REDIS_SLICE: SimDuration = SimDuration::millis(1);
const REDIS_LIMIT: SimDuration = SimDuration::secs(240);

/// `tenant_churn`: back-to-back schedules per run, each on a fresh node.
const CHURN_SCHEDULES: u64 = 32;
const CHURN_TENANTS: u32 = 64;
const CHURN_CORES: u16 = 64;
const CHURN_HORIZON: SimDuration = SimDuration::millis(40);
const CHURN_DEFRAG: SimDuration = SimDuration::millis(1);

/// `fleet_overload`: epochs stepped per run on the 2 × 8-core cluster.
const FLEET_EPOCHS: u32 = 250;
const FLEET_NODES: usize = 2;
const FLEET_CORES: u16 = 8;
const FLEET_EPOCH: SimDuration = SimDuration::millis(2);

/// Simulated outputs of one run, and its determinism fingerprint.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Named simulated outputs (counts, and latencies in simulated µs).
    pub outputs: Vec<(&'static str, f64)>,
    /// `Metrics::fingerprint` (folded over every node or schedule).
    pub fingerprint: u64,
    /// Violated invariants of the outputs; empty when the run is sound.
    pub violations: Vec<String>,
}

/// Seeded inputs of one workload.
#[derive(Debug, Clone)]
pub enum Inputs {
    Coremark {
        seed: u64,
        console_period: SimDuration,
    },
    Redis {
        seed: u64,
        clients: u32,
    },
    Churn {
        schedules: Vec<(u64, ChurnSchedule)>,
    },
    Fleet {
        seed: u64,
        tenants: Vec<TenantSpec>,
    },
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
        .wrapping_add(0x5EED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates `workload`'s inputs from `seed`; `None` for an unknown
    /// workload name.
    pub fn generate(workload: &str, seed: u64) -> Option<Inputs> {
        Some(match workload {
            "coremark_gapped" => {
                let (lo, hi) = COREMARK_CONSOLE_MS;
                Inputs::Coremark {
                    seed,
                    console_period: SimDuration::millis(lo + mix(seed, 0) % (hi - lo + 1)),
                }
            }
            "redis_virtio" => {
                let (lo, hi) = REDIS_CLIENTS;
                Inputs::Redis {
                    seed,
                    clients: lo + (mix(seed, 0) % u64::from(hi - lo + 1)) as u32,
                }
            }
            "tenant_churn" => Inputs::Churn {
                schedules: (0..CHURN_SCHEDULES)
                    .map(|i| {
                        let s = mix(seed, i);
                        (s, ChurnSchedule::generate(s, CHURN_TENANTS, CHURN_HORIZON))
                    })
                    .collect(),
            },
            "fleet_overload" => Inputs::Fleet {
                seed,
                tenants: fleet_tenants(),
            },
            _ => return None,
        })
    }

    /// Runs the workload once.
    pub fn run(&self, ins: &mut Instrument) -> Outcome {
        match self {
            Inputs::Coremark {
                seed,
                console_period,
            } => coremark_gapped(*seed, *console_period, ins),
            Inputs::Redis { seed, clients } => redis_virtio(*seed, *clients, ins),
            Inputs::Churn { schedules } => tenant_churn(schedules, ins),
            Inputs::Fleet { seed, tenants } => fleet_overload(*seed, tenants, ins),
        }
    }

    /// Performs only the set-up steps of a run, in run order (timed into
    /// `ins.setup`).
    pub fn setup_only(&self, ins: &mut Instrument) {
        match self {
            Inputs::Coremark {
                seed,
                console_period,
            } => drop(coremark_build(*seed, *console_period, ins)),
            Inputs::Redis { seed, clients } => drop(redis_build(*seed, *clients, ins)),
            Inputs::Churn { schedules } => {
                for (seed, _) in schedules {
                    drop(churn_build(*seed, ins));
                }
            }
            Inputs::Fleet { seed, tenants } => drop(fleet_build(*seed, tenants, ins)),
        }
    }
}

fn check(violations: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        violations.push(what());
    }
}

// ---------------------------------------------------------------- coremark

fn coremark_build(seed: u64, console_period: SimDuration, ins: &mut Instrument) -> (System, VmId) {
    ins.setup(|ins| {
        let mut cfg = SystemConfig::paper_default();
        cfg.seed = seed;
        cfg.rmm = cg_rmm::RmmConfig::core_gapped();
        cfg.num_host_cores = 1;
        cfg.machine.num_cores = COREMARK_CORES;
        let vcpus = u32::from(COREMARK_CORES) - 1;
        let mut system = System::new(cfg.clone());
        ins.attach(&mut system);
        let app = CoremarkPro::new(vcpus, SimDuration::micros(100));
        let guest = GuestKernel::new(vcpus, cfg.host.guest_hz, Box::new(app))
            .with_console_writes(console_period);
        let spec = VmSpec::core_gapped(vcpus).with_device(DeviceKind::VirtioNet);
        let vm = system
            .add_vm(spec, Box::new(guest), None)
            .expect("coremark VM admission");
        (system, vm)
    })
}

/// One 64-core node, one core-gapped 63-vCPU CoreMark-PRO CVM with
/// delegated timers/IPIs, async run calls and console writes at a
/// seeded period, for a fixed span.
fn coremark_gapped(seed: u64, console_period: SimDuration, ins: &mut Instrument) -> Outcome {
    let (mut system, vm) = coremark_build(seed, console_period, ins);
    for _ in 0..COREMARK_SPAN.as_nanos() / COREMARK_SLICE.as_nanos() {
        ins.slice_begin();
        system.run_for(COREMARK_SLICE);
        ins.slice_end([&system]);
    }
    let report = system.vm_report(vm);
    let iters = report.stats.counters.get("coremark.total_iterations");
    let mut violations = Vec::new();
    let ceiling = u64::from(COREMARK_CORES - 1) * COREMARK_SPAN.as_nanos() / 100_000;
    check(&mut violations, iters > 0 && iters <= ceiling, || {
        format!("coremark iterations {iters} outside (0, {ceiling}]")
    });
    ins.absorb(&system);
    Outcome {
        outputs: vec![
            ("coremark.total_iterations", iters as f64),
            ("exits_total", report.exits_total as f64),
            ("exits_interrupt", report.exits_interrupt as f64),
        ],
        fingerprint: system.metrics().fingerprint(),
        violations,
    }
}

// ------------------------------------------------------------------- redis

fn redis_build(seed: u64, clients: u32, ins: &mut Instrument) -> (System, VmId) {
    ins.setup(|ins| {
        let mut cfg = SystemConfig::paper_default();
        cfg.seed = seed;
        cfg.rmm = cg_rmm::RmmConfig::core_gapped();
        cfg.num_host_cores = 1;
        cfg.machine.num_cores = 17;
        let vcpus = 15;
        let mut system = System::new(cfg.clone());
        ins.attach(&mut system);
        let app = RedisServer::new(RedisCommand::Get, 0);
        let guest = GuestKernel::new(vcpus, cfg.host.guest_hz, Box::new(app));
        let spec = VmSpec::core_gapped(vcpus)
            .with_device(DeviceKind::VirtioNet)
            .with_io_fastpath();
        let pool = RedisClientPool::new(clients, REDIS_OBJECT_BYTES, REDIS_REQUESTS);
        let vm = system
            .add_vm(spec, Box::new(guest), Some(Box::new(pool)))
            .expect("redis VM admission");
        (system, vm)
    })
}

/// A 15-vCPU core-gapped Redis GET server on the virtio fast path
/// (EVENT_IDX on), driven by a closed-loop pool of a seeded 46–54
/// clients with 512 B objects to a fixed request count.
fn redis_virtio(seed: u64, clients: u32, ins: &mut Instrument) -> Outcome {
    let (mut system, vm) = redis_build(seed, clients, ins);
    let mut done = false;
    for _ in 0..REDIS_LIMIT.as_nanos() / REDIS_SLICE.as_nanos() {
        ins.slice_begin();
        done = system.run_until_peer_done(vm, REDIS_SLICE);
        ins.slice_end([&system]);
        if done {
            break;
        }
    }
    let completed = system.peer_completed(vm);
    let mut lat = system
        .peer_samples(vm)
        .and_then(|mut s| s.remove("request_us"))
        .unwrap_or_else(Samples::new);
    let (p50, p99) = (lat.percentile(50.0), lat.percentile(99.0));
    let report = system.vm_report(vm);
    let mut violations = Vec::new();
    check(&mut violations, done && completed == REDIS_REQUESTS, || {
        format!("redis completed {completed} of {REDIS_REQUESTS} (done: {done})")
    });
    check(&mut violations, p50 > 0.0 && p50 <= p99, || {
        format!("redis latency p50 {p50} / p99 {p99} out of order")
    });
    ins.absorb(&system);
    Outcome {
        outputs: vec![
            ("completed", completed as f64),
            ("latency_p50_us", p50),
            ("latency_p99_us", p99),
            ("exits_total", report.exits_total as f64),
        ],
        fingerprint: system.metrics().fingerprint(),
        violations,
    }
}

// ------------------------------------------------------------------- churn

fn churn_build(seed: u64, ins: &mut Instrument) -> System {
    ins.setup(|ins| {
        let mut cfg = SystemConfig::paper_default();
        cfg.machine.num_cores = CHURN_CORES;
        cfg.seed = seed;
        let mut system = System::new(cfg);
        ins.attach(&mut system);
        system.enable_defrag(CHURN_DEFRAG);
        system
    })
}

/// The benchmark's own churn driver: applies a schedule through
/// `add_vm`, `resize_vm`, `shutdown_vm` and `destroy_vm`, retrying
/// deferred arrivals as capacity frees up.
struct ChurnDriver {
    system: System,
    vms: Vec<Option<VmId>>,
    gone: Vec<bool>,
    /// (tenant, vcpus, first requested at), retried in arrival order.
    waiting: Vec<(u32, u32, SimTime)>,
    /// Shut-down VMs not yet torn down.
    dying: Vec<VmId>,
}

#[derive(Debug, Default)]
struct ChurnTotals {
    arrivals: u64,
    admitted: u64,
    deferred: u64,
    never_admitted: u64,
    departed: u64,
    resizes: u64,
    resizes_skipped: u64,
    admit_us: Samples,
}

impl ChurnDriver {
    fn admit(
        &mut self,
        tenant: u32,
        vcpus: u32,
        requested_at: SimTime,
        t: &mut ChurnTotals,
    ) -> bool {
        let spec = VmSpec::core_gapped(vcpus).with_contiguous();
        let app = CoremarkPro::new(vcpus, SimDuration::micros(100));
        let guest = GuestKernel::new(vcpus, 250, Box::new(app));
        match self.system.add_vm(spec, Box::new(guest), None) {
            Ok(vm) => {
                self.vms[tenant as usize] = Some(vm);
                t.admitted += 1;
                let waited = self.system.now().duration_since(requested_at);
                t.admit_us.record(waited.as_micros_f64());
                true
            }
            Err(_) => false,
        }
    }

    fn housekeeping(&mut self, t: &mut ChurnTotals) {
        for vm in std::mem::take(&mut self.dying) {
            if self.system.vm_report(vm).finished.is_some() {
                self.system
                    .destroy_vm(vm)
                    .expect("a finished VM tears down");
                t.departed += 1;
            } else {
                self.dying.push(vm);
            }
        }
        for (tenant, vcpus, at) in std::mem::take(&mut self.waiting) {
            if !self.gone[tenant as usize] && !self.admit(tenant, vcpus, at, t) {
                self.waiting.push((tenant, vcpus, at));
            }
        }
    }
}

/// Back-to-back seeded churn schedules of 64 elastic CoreMark tenants,
/// each on a fresh 64-core node with a 1 ms defrag period.
fn tenant_churn(schedules: &[(u64, ChurnSchedule)], ins: &mut Instrument) -> Outcome {
    let mut t = ChurnTotals::default();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let mut destroyed = 0;
    for (seed, schedule) in schedules {
        let system = churn_build(*seed, ins);
        let tenants = schedule.arrivals();
        t.arrivals += tenants as u64;
        let mut d = ChurnDriver {
            system,
            vms: vec![None; tenants],
            gone: vec![false; tenants],
            waiting: Vec::new(),
            dying: Vec::new(),
        };
        let start = d.system.now();
        for ev in &schedule.events {
            ins.slice_begin();
            d.system.run_until(start + ev.at);
            d.housekeeping(&mut t);
            let tenant = ev.tenant as usize;
            match ev.action {
                ChurnAction::Arrive { vcpus } => {
                    let now = d.system.now();
                    if !d.admit(ev.tenant, vcpus, now, &mut t) {
                        t.deferred += 1;
                        d.waiting.push((ev.tenant, vcpus, now));
                    }
                }
                ChurnAction::Resize { vcpus } => match d.vms[tenant] {
                    Some(vm) if d.system.resize_vm(vm, vcpus).is_ok() => t.resizes += 1,
                    _ => t.resizes_skipped += 1,
                },
                ChurnAction::Depart => {
                    d.gone[tenant] = true;
                    if let Some(vm) = d.vms[tenant].take() {
                        d.system.shutdown_vm(vm);
                        d.dying.push(vm);
                    }
                }
            }
            ins.slice_end([&d.system]);
        }
        // Drain: let in-flight elastic ops finish and give waiting
        // arrivals a last chance as the stragglers depart.
        ins.slice_begin();
        d.system.run_until(start + schedule.horizon);
        ins.slice_end([&d.system]);
        for _ in 0..20 {
            ins.slice_begin();
            d.housekeeping(&mut t);
            let drained = d.dying.is_empty();
            if !drained {
                d.system.run_for(SimDuration::micros(500));
            }
            ins.slice_end([&d.system]);
            if drained {
                break;
            }
        }
        t.never_admitted += d.waiting.len() as u64;
        destroyed += d.system.metrics().counters.get("system.vms_destroyed");
        fingerprint = fingerprint.rotate_left(7) ^ d.system.metrics().fingerprint();
        ins.absorb(&d.system);
    }
    let admit_p99 = t.admit_us.percentile(99.0);
    let mut violations = Vec::new();
    check(
        &mut violations,
        t.admitted > 0 && t.admitted + t.never_admitted <= t.arrivals,
        || {
            format!(
                "churn admitted {} + never admitted {} vs {} arrivals",
                t.admitted, t.never_admitted, t.arrivals
            )
        },
    );
    check(
        &mut violations,
        t.departed <= t.admitted && t.departed == destroyed,
        || {
            format!(
                "churn departed {} vs admitted {} and destroyed {destroyed}",
                t.departed, t.admitted
            )
        },
    );
    Outcome {
        outputs: vec![
            ("arrivals", t.arrivals as f64),
            ("admitted", t.admitted as f64),
            ("deferred", t.deferred as f64),
            ("never_admitted", t.never_admitted as f64),
            ("departed", t.departed as f64),
            ("resizes", t.resizes as f64),
            ("resizes_skipped", t.resizes_skipped as f64),
            ("admit_p99_us", admit_p99),
        ],
        fingerprint,
        violations,
    }
}

// ------------------------------------------------------------------- fleet

/// The `FleetConfig::paper_default` tenant mix on two nodes: node 0
/// packed with CPU-bound tenants whose ceilings oversubscribe it and
/// whose offered load exceeds even those ceilings, node 1 one light
/// echo tenant.
pub fn fleet_tenants() -> Vec<TenantSpec> {
    let compute = |base_us: u64, resp: u64| ServiceProfile::Compute {
        base: SimDuration::micros(base_us),
        per_kb: SimDuration::micros(2),
        response_bytes: resp,
    };
    let tenant = |vcpus, profile, rate, req_bytes, admission, slo_us, node| TenantSpec {
        vcpus,
        initial_active: 1,
        profile,
        rate_per_sec: rate,
        req_bytes,
        admission,
        slo: SimDuration::micros(slo_us),
        node,
    };
    let policy = |rate_per_sec, burst, queue_cap| AdmissionPolicy {
        rate_per_sec,
        burst,
        queue_cap,
    };
    vec![
        tenant(
            4,
            compute(40, 256),
            80_000.0,
            (512, 2048),
            policy(45_000.0, 32.0, 24),
            400,
            0,
        ),
        tenant(
            4,
            compute(40, 256),
            60_000.0,
            (512, 2048),
            policy(40_000.0, 32.0, 24),
            400,
            0,
        ),
        tenant(
            2,
            compute(15, 512),
            25_000.0,
            (256, 1024),
            policy(30_000.0, 32.0, 32),
            250,
            0,
        ),
        tenant(
            2,
            ServiceProfile::Echo,
            10_000.0,
            (128, 512),
            policy(15_000.0, 24.0, 24),
            120,
            1,
        ),
    ]
}

fn fleet_build(seed: u64, tenants: &[TenantSpec], ins: &mut Instrument) -> FleetDriver {
    ins.setup(|ins| {
        let mut cfg = SystemConfig::paper_default();
        cfg.machine.num_cores = FLEET_CORES;
        cfg.seed = seed;
        let mut cluster = Cluster::homogeneous(cfg, FLEET_NODES);
        for n in 0..cluster.num_nodes() {
            ins.attach(cluster.node_mut(n));
        }
        FleetDriver::new(
            cluster,
            tenants.to_vec(),
            FleetPolicy::default(),
            FLEET_EPOCH,
            seed,
        )
    })
}

/// The two-node cg-fleet cluster under open-loop Poisson overload with
/// shedding, elastic resizing and migration on, stepped epoch by epoch.
fn fleet_overload(seed: u64, tenants: &[TenantSpec], ins: &mut Instrument) -> Outcome {
    let mut driver = fleet_build(seed, tenants, ins);
    for _ in 0..FLEET_EPOCHS {
        ins.slice_begin();
        driver.step_epoch();
        let cluster = driver.cluster();
        ins.slice_end((0..cluster.num_nodes()).map(|n| cluster.node(n)));
    }
    let (mut admitted, mut shed, mut completed, mut slo_met, mut in_flight) = (0, 0, 0, 0, 0);
    for t in 0..tenants.len() {
        let (met, missed) = driver.tenant_slo(t);
        admitted += driver.tenant_admitted(t);
        shed += driver.tenant_shed(t);
        completed += met + missed;
        slo_met += met;
        in_flight += driver.tenant_in_flight(t);
    }
    let offered = driver.offered();
    let cluster = driver.cluster();
    let node_sum = |name: &str| -> u64 {
        (0..cluster.num_nodes())
            .map(|n| cluster.node(n).metrics().counters.get(name))
            .sum()
    };
    let (resize_up, resize_down, migrations) = (
        node_sum("fleet.resize_up"),
        node_sum("fleet.resize_down"),
        node_sum("fleet.migrations"),
    );
    let mut violations = Vec::new();
    check(
        &mut violations,
        offered > 0 && offered == admitted + shed,
        || format!("fleet offered {offered} != admitted {admitted} + shed {shed}"),
    );
    check(&mut violations, admitted == completed + in_flight, || {
        format!("fleet admitted {admitted} != completed {completed} + in flight {in_flight}")
    });
    check(&mut violations, slo_met <= completed, || {
        format!("fleet SLO met {slo_met} > completed {completed}")
    });
    for n in 0..cluster.num_nodes() {
        ins.absorb(cluster.node(n));
    }
    Outcome {
        outputs: vec![
            ("offered", offered as f64),
            ("admitted", admitted as f64),
            ("shed", shed as f64),
            ("completed", completed as f64),
            ("slo_met", slo_met as f64),
            ("resize_up", resize_up as f64),
            ("resize_down", resize_down as f64),
            ("migrations", migrations as f64),
        ],
        fingerprint: driver.fingerprint(),
        violations,
    }
}
