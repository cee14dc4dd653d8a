//! Isolated timings of single public functions (`op.*`), of the
//! control-plane calls (`cp.*`) and of one fleet epoch. They do not
//! depend on the workload: each traced run measures the same probes,
//! so their host-time noise can be read across the four workloads.

use std::hint::black_box;
use std::time::Instant;

use cg_cca::RmiCall;
use cg_core::cluster::Cluster;
use cg_core::fleet::{FleetDriver, FleetPolicy};
use cg_core::{System, SystemConfig, VmSpec};
use cg_host::{AdmissionPolicy, CorePlanner, FrontEnd};
use cg_ivc::{IvcMsg, MsgRing};
use cg_machine::{CoreId, Domain, GranuleAddr, HwParams, Machine, RealmId, World};
use cg_rmm::{Rmm, RmmConfig};
use cg_rpc::SyncChannel;
use cg_sim::{Counters, EventQueue, Histogram, SimDuration, SimTime};
use cg_virtio::{Descriptor, QueueLayout, VirtQueue};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;

use crate::host::{min, ns_per_call, percentile};

/// Host time spent per `op.*` probe, seconds.
const OP_BUDGET_S: f64 = 0.06;
/// Calls per timed batch of an `op.*` probe.
const OP_BATCH: u64 = 2_000;
/// Timed batches per `op.*` probe, at least.
const OP_MIN_BATCHES: usize = 9;

/// Pending events kept in the queue while its operations are timed.
const QUEUE_DEPTH: u64 = 1_024;

/// A cheap deterministic stream of pseudo-random offsets.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Counter names a simulation increments on its hot path.
const COUNTER_KEYS: [&str; 8] = [
    "rpc.run_calls",
    "rpc.doorbell_ipis",
    "rpc.timeout_serving",
    "rmm.rec_enter",
    "virtio.kicks",
    "io.polls",
    "ipi.delivered",
    "wakeup.watchdog_scans",
];

/// Ns per call of each `op.*` probe, from its fastest batch.
pub fn op_timings() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    // `calls` public calls per timed operation; the result is per call.
    let mut time = |name, calls: f64, op: &mut dyn FnMut()| {
        out.push((
            name,
            ns_per_call(OP_BATCH, OP_MIN_BATCHES, OP_BUDGET_S, op) / calls,
        ));
    };

    // EventQueue: one push + one pop at a steady depth.
    {
        let mut q = EventQueue::new();
        let mut rng = Lcg(1);
        for i in 0..QUEUE_DEPTH {
            q.schedule_after(SimDuration::nanos(rng.next() % 100_000), i);
        }
        time("op.queue.push_pop_ns", 1.0, &mut || {
            q.schedule_after(SimDuration::nanos(rng.next() % 100_000), 0);
            black_box(q.pop());
        });
    }
    // EventQueue: schedule an event and cancel it, at a steady depth.
    {
        let mut q = EventQueue::new();
        let mut rng = Lcg(2);
        for i in 0..QUEUE_DEPTH {
            q.schedule_after(SimDuration::nanos(rng.next() % 100_000), i);
        }
        time("op.queue.cancel_ns", 1.0, &mut || {
            let token = q.schedule_after(SimDuration::nanos(rng.next() % 100_000), 0);
            black_box(q.cancel(token));
        });
    }
    {
        let mut c = Counters::new();
        let mut i = 0usize;
        time("op.counters.add_ns", 1.0, &mut || {
            c.add(COUNTER_KEYS[i % COUNTER_KEYS.len()], 1);
            i += 1;
        });
        black_box(&c);
    }
    {
        let mut h = Histogram::new();
        let mut rng = Lcg(3);
        time("op.hist.record_ns", 1.0, &mut || {
            h.record((rng.next() % 1_000_000) as f64 / 100.0);
        });
        black_box(&h);
    }
    {
        let mut m = Machine::new(HwParams::small()).expect("small hardware parameters");
        let d = Domain::Realm(RealmId(0));
        time("op.machine.run_compute_ns", 1.0, &mut || {
            black_box(m.run_compute(CoreId(0), d, SimDuration::micros(100)));
        });
    }
    // One realm entry and one exit: two switches per call.
    {
        let mut m = Machine::new(HwParams::small()).expect("small hardware parameters");
        time("op.machine.world_switch_ns", 2.0, &mut || {
            black_box(m.world_switch(CoreId(0), World::Realm));
            black_box(m.world_switch(CoreId(0), World::Normal));
        });
    }
    {
        let params = HwParams::small();
        let mut ch = SyncChannel::<u64, u64>::new();
        let mut now = SimTime::ZERO;
        time("op.rpc.round_trip_ns", 1.0, &mut || {
            ch.post_request(1, now)
                .expect("idle channel takes a request");
            let vis = ch.request_visible_at(&params).expect("request posted");
            let req = ch.take_request(vis, &params).expect("request visible");
            ch.post_response(req + 1, vis).expect("request taken");
            let rvis = ch.response_visible_at(&params).expect("response posted");
            black_box(ch.take_response(rvis, &params).expect("response visible"));
            now = rvis;
        });
    }
    {
        let base = GranuleAddr::new(0x8000_0000).expect("aligned granule");
        let mut q = VirtQueue::new(QueueLayout::new(base, 256), 256, true);
        let mut cookie = 0u64;
        time("op.virtio.publish_consume_ns", 1.0, &mut || {
            cookie += 1;
            q.push(Descriptor::net(512, cookie)).expect("ring has room");
            black_box(q.should_kick());
            let d = q.pop_avail().expect("descriptor published");
            q.push_used(d);
            black_box(q.should_interrupt());
            black_box(q.consume_used());
            q.enable_kicks();
        });
    }
    {
        let mut rmm = Rmm::new(RmmConfig::core_gapped());
        let mut machine = Machine::new(HwParams::small()).expect("small hardware parameters");
        let g = GranuleAddr::new(0x10_0000).expect("aligned granule");
        time("op.rmm.delegate_ns", 1.0, &mut || {
            black_box(rmm.handle_rmi(
                CoreId(0),
                RmiCall::GranuleDelegate { addr: g },
                &mut machine,
            ));
            black_box(rmm.handle_rmi(
                CoreId(0),
                RmiCall::GranuleUndelegate { addr: g },
                &mut machine,
            ));
        });
    }
    {
        let mut planner = CorePlanner::new((1..64).map(CoreId));
        planner
            .admit(RealmId(1), 7)
            .expect("empty pool admits a resident");
        time("op.planner.admit_release_ns", 1.0, &mut || {
            black_box(planner.admit(RealmId(2), 4).expect("pool has room"));
            black_box(planner.release(RealmId(2)).expect("just admitted"));
        });
    }
    {
        let policies = [AdmissionPolicy {
            rate_per_sec: 45_000.0,
            burst: 32.0,
            queue_cap: 24,
        }; 4];
        let mut fe = FrontEnd::new(&policies, 256);
        let mut now = SimTime::ZERO;
        let mut t = 0usize;
        time("op.frontend.admit_ns", 1.0, &mut || {
            now += SimDuration::micros(15);
            t = (t + 1) % policies.len();
            if fe.admit(t, now, true).is_ok() {
                fe.gate_mut(t).complete();
            }
        });
    }
    {
        let mut ring = MsgRing::new(64);
        let mut seq = 0u64;
        time("op.ivc.send_recv_ns", 1.0, &mut || {
            seq += 1;
            ring.publish(IvcMsg::new(256, seq)).expect("ring has room");
            black_box(ring.should_ring());
            black_box(ring.drain());
            ring.arm();
        });
    }
    out
}

/// Host time spent on the control-plane probe, seconds.
const CP_BUDGET_S: f64 = 0.4;
const CP_MIN_ROUNDS: usize = 15;

/// Fastest host µs per control-plane call: a fresh 64-core node
/// (`System::new`), then admission, resize, shutdown and teardown of a
/// 4-vCPU elastic CoreMark tenant on it.
pub fn cp_timings() -> Vec<(&'static str, f64)> {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let (mut new, mut add, mut resize, mut shutdown, mut destroy) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while new.len() < CP_MIN_ROUNDS || start.elapsed().as_secs_f64() < CP_BUDGET_S {
        let mut cfg = SystemConfig::paper_default();
        cfg.machine.num_cores = 64;
        let t = Instant::now();
        let mut system = System::new(cfg);
        new.push(us(t));
        let app = CoremarkPro::new(4, SimDuration::micros(100));
        let guest = GuestKernel::new(4, 250, Box::new(app));
        let t = Instant::now();
        let vm = system
            .add_vm(
                VmSpec::core_gapped(4).with_contiguous(),
                Box::new(guest),
                None,
            )
            .expect("empty node admits a tenant");
        add.push(us(t));
        system.run_for(SimDuration::millis(2));
        let t = Instant::now();
        system.resize_vm(vm, 2).expect("idle elastic queue resizes");
        resize.push(us(t));
        system.run_for(SimDuration::millis(2));
        let t = Instant::now();
        system.shutdown_vm(vm);
        shutdown.push(us(t));
        for _ in 0..100 {
            if system.vm_report(vm).finished.is_some() {
                break;
            }
            system.run_for(SimDuration::millis(1));
        }
        let t = Instant::now();
        system.destroy_vm(vm).expect("finished VM tears down");
        destroy.push(us(t));
    }
    vec![
        ("cp.system_new_us", min(&new)),
        ("cp.add_vm_us", min(&add)),
        ("cp.resize_vm_us", min(&resize)),
        ("cp.shutdown_vm_us", min(&shutdown)),
        ("cp.destroy_vm_us", min(&destroy)),
    ]
}

/// Epochs stepped by the fleet-epoch probe.
const EPOCH_PROBE_EPOCHS: u32 = 1_000;

/// Host µs per `FleetDriver::step_epoch` on the default two-node fleet
/// (p50, p99 over 1000 epochs).
pub fn fleet_epoch_timings() -> Vec<(&'static str, f64)> {
    let mut cfg = SystemConfig::paper_default();
    cfg.machine.num_cores = 8;
    cfg.seed = 0xF1EE7;
    let cluster = Cluster::homogeneous(cfg, 2);
    let mut driver = FleetDriver::new(
        cluster,
        crate::workloads::fleet_tenants(),
        FleetPolicy::default(),
        SimDuration::millis(2),
        0xF1EE7,
    );
    let mut epoch_us = Vec::with_capacity(EPOCH_PROBE_EPOCHS as usize);
    for _ in 0..EPOCH_PROBE_EPOCHS {
        let t = Instant::now();
        driver.step_epoch();
        epoch_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    vec![
        ("fleet.epoch_us.p50", percentile(&epoch_us, 50.0)),
        ("fleet.epoch_us.p99", percentile(&epoch_us, 99.0)),
    ]
}
