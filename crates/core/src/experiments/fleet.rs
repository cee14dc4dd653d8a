//! The cg-fleet serving-plane experiment: SLO attainment under
//! overload, with and without admission control.
//!
//! A small cluster hosts a skewed tenant mix — one node packed with
//! CPU-bound tenants whose elastic ceilings oversubscribe its dedicable
//! cores, the other nodes lightly loaded — and an open-loop Poisson
//! load deliberately offered *past* the hot tenants' serving capacity.
//! Three ablations of the same offered load:
//!
//! * **shedding-on** (the paper configuration): token-bucket + queue-cap
//!   admission, ring backpressure, SLO-driven elastic scaling and
//!   migration rebalancing;
//! * **shedding-off**: every request admitted — queues grow without
//!   bound and completed requests drown in queueing delay;
//! * **static**: shedding on, but no elastic scaling or rebalancing —
//!   tenants are stuck at their initial vCPU counts.
//!
//! The claim the numbers must back: under overload, shedding-on holds
//! strictly higher SLO attainment than shedding-off (attainment counts
//! shed requests as missed, so this is not free — bounded queues must
//! buy back more than the sheds cost).

use cg_host::AdmissionPolicy;
use cg_sim::{FaultPlan, SimDuration};
use cg_workloads::service::ServiceProfile;

use crate::cluster::Cluster;
use crate::config::SystemConfig;
use crate::fleet::{FleetDriver, FleetPolicy, TenantSpec};
use crate::obs::Obs;

/// Parameters of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Cluster size. Node 0 is the hot node; the rest host one light
    /// tenant each (and serve as rebalancing headroom).
    pub nodes: usize,
    /// Cores per node (core 0 hosts the host OS; the rest are
    /// dedicable).
    pub cores: u16,
    /// Epoch length: the SLO tracker's decision period.
    pub epoch: SimDuration,
    /// Epochs to run.
    pub epochs: u32,
    /// Multiplier on every tenant's offered arrival rate.
    pub load_scale: f64,
    /// Seed for the cluster and every arrival process.
    pub seed: u64,
    /// Fault plan applied to every node (request bursts, front-end
    /// stalls, plus any of the usual classes).
    pub plan: FaultPlan,
    /// Serving-plane policy (shedding / elastic / backpressure).
    pub policy: FleetPolicy,
}

impl FleetConfig {
    /// The paper configuration: 2 nodes × 8 cores, a packed hot node
    /// (ceilings 4+4+2 over 7 dedicable cores), 20 ms of overload.
    pub fn paper_default() -> FleetConfig {
        FleetConfig {
            nodes: 2,
            cores: 8,
            epoch: SimDuration::millis(2),
            epochs: 10,
            load_scale: 1.0,
            seed: 0xF1EE7,
            plan: FaultPlan::default(),
            policy: FleetPolicy::default(),
        }
    }

    /// The same run with admission control and shedding disabled.
    pub fn shedding_off(mut self) -> FleetConfig {
        self.policy.shedding = false;
        self
    }

    /// The same run with the elastic plane disabled (static vCPU
    /// allocation; shedding still on).
    pub fn static_allocation(mut self) -> FleetConfig {
        self.policy.elastic = false;
        self
    }
}

/// Per-tenant outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Node the tenant ended the run on.
    pub node: usize,
    /// Active vCPUs at the end of the run.
    pub active: u32,
    /// Requests offered.
    pub offered: u64,
    /// Requests admitted by the front-end.
    pub admitted: u64,
    /// Requests shed (all reasons).
    pub shed: u64,
    /// Shed breakdown: `(reason label, count)` per
    /// [`cg_host::ShedReason`], in declaration order.
    pub shed_by: Vec<(&'static str, u64)>,
    /// Admitted requests whose response was matched to its admission.
    pub completed: u64,
    /// Admitted requests still unmatched at the end of the run.
    pub in_flight: u64,
    /// Completed-request latency p50 (µs).
    pub p50_us: f64,
    /// Completed-request latency p99 (µs).
    pub p99_us: f64,
    /// SLO attainment over *offered* load: completions within the SLO
    /// divided by everything offered — shed and stranded requests count
    /// as missed.
    pub attainment: f64,
}

/// Outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantOutcome>,
    /// Total requests offered.
    pub offered: u64,
    /// Total requests admitted.
    pub admitted: u64,
    /// Total requests shed.
    pub shed: u64,
    /// Total completions matched to their admission.
    pub completed: u64,
    /// Admitted requests still in flight at the end.
    pub in_flight: u64,
    /// Completions within their tenant's SLO.
    pub slo_met: u64,
    /// Fleet-wide attainment: `slo_met / offered`.
    pub attainment: f64,
    /// Elastic scale-ups applied.
    pub resizes_up: u64,
    /// Elastic scale-downs applied.
    pub resizes_down: u64,
    /// Rebalancing migrations completed.
    pub migrations: u64,
    /// Deterministic fingerprint folding every node's metrics.
    pub fingerprint: u64,
}

/// The tenant mix: node 0 packed with CPU-bound tenants whose ceilings
/// oversubscribe it, every other node one light echo tenant.
fn tenant_mix(cfg: &FleetConfig) -> Vec<TenantSpec> {
    let compute = |base_us: u64, resp: u64| ServiceProfile::Compute {
        base: SimDuration::micros(base_us),
        per_kb: SimDuration::micros(2),
        response_bytes: resp,
    };
    let mut mix = vec![
        // Two hot inference-like tenants: ~21k req/s/vCPU capacity,
        // offered 80k req/s — past even their 3-vCPU ceiling.
        TenantSpec {
            vcpus: 4,
            initial_active: 1,
            profile: compute(40, 256),
            rate_per_sec: 80_000.0 * cfg.load_scale,
            req_bytes: (512, 2048),
            admission: AdmissionPolicy {
                rate_per_sec: 45_000.0,
                burst: 32.0,
                queue_cap: 24,
            },
            slo: SimDuration::micros(400),
            node: 0,
        },
        TenantSpec {
            vcpus: 4,
            initial_active: 1,
            profile: compute(40, 256),
            rate_per_sec: 60_000.0 * cfg.load_scale,
            req_bytes: (512, 2048),
            admission: AdmissionPolicy {
                rate_per_sec: 40_000.0,
                burst: 32.0,
                queue_cap: 24,
            },
            slo: SimDuration::micros(400),
            node: 0,
        },
        // A steadier query tenant with a tighter SLO.
        TenantSpec {
            vcpus: 2,
            initial_active: 1,
            profile: compute(15, 512),
            rate_per_sec: 25_000.0 * cfg.load_scale,
            req_bytes: (256, 1024),
            admission: AdmissionPolicy {
                rate_per_sec: 30_000.0,
                burst: 32.0,
                queue_cap: 32,
            },
            slo: SimDuration::micros(250),
            node: 0,
        },
    ];
    for node in 1..cfg.nodes {
        // Light cache-like tenants keep the spill-over nodes honest
        // without saturating them.
        mix.push(TenantSpec {
            vcpus: 2,
            initial_active: 1,
            profile: ServiceProfile::Echo,
            rate_per_sec: 10_000.0 * cfg.load_scale,
            req_bytes: (128, 512),
            admission: AdmissionPolicy {
                rate_per_sec: 15_000.0,
                burst: 24.0,
                queue_cap: 24,
            },
            slo: SimDuration::micros(120),
            node,
        });
    }
    mix
}

/// Runs the fleet experiment and reports the outcome.
///
/// Records through the observability bundle `obs`.
pub fn run_fleet(cfg: &FleetConfig, obs: &Obs) -> FleetResult {
    let mut config = SystemConfig::paper_default();
    config.machine.num_cores = cfg.cores;
    config.seed = cfg.seed;
    config.fault = cfg.plan.clone();
    let mut cluster = Cluster::homogeneous(config, cfg.nodes);
    for n in 0..cluster.num_nodes() {
        cluster.node_mut(n).attach_obs(obs);
    }
    let specs = tenant_mix(cfg);
    let num_tenants = specs.len();
    let mut driver = FleetDriver::new(cluster, specs, cfg.policy.clone(), cfg.epoch, cfg.seed);
    driver.run_epochs(cfg.epochs);

    let mut tenants = Vec::with_capacity(num_tenants);
    let (mut offered, mut admitted, mut shed) = (0, 0, 0);
    let (mut completed, mut in_flight, mut slo_met) = (0, 0, 0);
    for t in 0..num_tenants {
        let (met, missed) = driver.tenant_slo(t);
        let t_offered = driver.tenant_offered(t);
        let out = TenantOutcome {
            node: driver.tenant_node(t),
            active: driver.tenant_active(t),
            offered: t_offered,
            admitted: driver.tenant_admitted(t),
            shed: driver.tenant_shed(t),
            shed_by: cg_host::ShedReason::ALL
                .iter()
                .map(|&r| (r.label(), driver.tenant_shed_by(t, r)))
                .collect(),
            completed: met + missed,
            in_flight: driver.tenant_in_flight(t),
            p50_us: driver.tenant_latency_us(t, 50.0),
            p99_us: driver.tenant_latency_us(t, 99.0),
            attainment: if t_offered == 0 {
                1.0
            } else {
                met as f64 / t_offered as f64
            },
        };
        offered += out.offered;
        admitted += out.admitted;
        shed += out.shed;
        completed += out.completed;
        in_flight += out.in_flight;
        slo_met += met;
        tenants.push(out);
    }
    let counter = |name: &str| -> u64 {
        (0..driver.cluster().num_nodes())
            .map(|n| driver.cluster().node(n).metrics().counters.get(name))
            .sum()
    };
    let resizes_up = counter("fleet.resize_up");
    let resizes_down = counter("fleet.resize_down");
    let migrations = counter("fleet.migrations");
    FleetResult {
        tenants,
        offered,
        admitted,
        shed,
        completed,
        in_flight,
        slo_met,
        attainment: if offered == 0 {
            1.0
        } else {
            slo_met as f64 / offered as f64
        },
        resizes_up,
        resizes_down,
        migrations,
        fingerprint: driver.fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FleetConfig {
        FleetConfig {
            epochs: 5,
            ..FleetConfig::paper_default()
        }
    }

    #[test]
    fn accounting_identity_closes() {
        let r = run_fleet(&quick(), &Obs::disabled());
        assert_eq!(r.offered, r.admitted + r.shed);
        assert_eq!(r.admitted, r.completed + r.in_flight);
        for t in &r.tenants {
            assert_eq!(t.offered, t.admitted + t.shed);
            assert_eq!(t.admitted, t.completed + t.in_flight);
        }
    }

    #[test]
    fn overload_actually_sheds_and_scales() {
        let r = run_fleet(&quick(), &Obs::disabled());
        assert!(r.shed > 0, "the hot tenants must overload their gates");
        assert!(r.resizes_up > 0, "the SLO tracker must grow someone");
        assert!(r.completed > 0);
    }

    #[test]
    fn shedding_off_never_sheds_by_policy() {
        // A migration blackout can still shed TenantUnavailable (the VM
        // is genuinely not there), but no policy reason may ever fire.
        let r = run_fleet(&quick().shedding_off(), &Obs::disabled());
        for t in &r.tenants {
            for &(label, count) in &t.shed_by {
                if label != "unavailable" {
                    assert_eq!(count, 0, "policy shed {label} with shedding off");
                }
            }
        }
        assert_eq!(r.offered, r.admitted + r.shed);
    }

    #[test]
    fn static_allocation_never_resizes() {
        let r = run_fleet(&quick().static_allocation(), &Obs::disabled());
        assert_eq!(r.resizes_up + r.resizes_down + r.migrations, 0);
    }
}
