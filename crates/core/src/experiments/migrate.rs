//! Live-migration evaluation: downtime under a dirtying workload,
//! pre-copy vs stop-and-copy-only, and the tampered-blob abort path.
//!
//! A two-node cluster hosts a fleet of core-gapped CVMs, each running a
//! write-heavy working-set guest ([`cg_workloads::dirtier::Dirtier`]).
//! The batch drains node 0 into node 1 one VM at a time — every
//! migration therefore evacuates *under load*, with the remaining
//! tenants still dirtying and competing for the source's host core —
//! and reports the downtime distribution (p50/p99), round counts, and
//! dirtied-granule transfer totals. Run once with pre-copy and once
//! with `stop_copy_only` to measure what the iterative rounds buy: the
//! stop-and-copy-only baseline ships the whole image inside the
//! downtime window, pre-copy only the converged residual.
//!
//! With tampering injected ([`cg_sim::FaultPlan::migrate_tampering`]),
//! every blob is corrupted in transit; the batch then measures the
//! abort path — rejected imports audited on the destination, every VM
//! resumed on the source.

use cg_migrate::MigrateConfig;
use cg_sim::{FaultPlan, Samples, SimDuration};
use cg_workloads::dirtier::Dirtier;

use crate::cluster::Cluster;
use crate::config::{SystemConfig, VmSpec};
use crate::obs::Obs;

/// Parameters of one migration batch.
#[derive(Debug, Clone)]
pub struct MigrateBatchConfig {
    /// CVMs to place on node 0 and migrate to node 1, one at a time.
    pub vms: u32,
    /// vCPUs (= dedicated cores) per CVM.
    pub vcpus: u32,
    /// Protected data pages per realm — the full image pre-copy's first
    /// round (or the stop-copy-only downtime window) must ship.
    pub data_pages: u32,
    /// Pages each guest keeps re-dirtying (its hot working set).
    pub working_set: u32,
    /// Guest compute between dirty writes; smaller means a hotter set.
    pub think: SimDuration,
    /// Warm-up before the first migration (the fleet dirties freely).
    pub warmup: SimDuration,
    /// Cores per node (one stays with the host).
    pub cores: u16,
    /// Seed for both nodes' schedulers and injectors.
    pub seed: u64,
    /// `false` switches to the stop-and-copy-only baseline.
    pub pre_copy: bool,
    /// Tamper with every blob in transit (the abort-path measurement).
    pub tamper: bool,
}

impl MigrateBatchConfig {
    /// The paper-style default: eight 2-vCPU CVMs with a 256-page image
    /// and a 16-page hot set, drained across a datacenter link.
    pub fn paper_default() -> MigrateBatchConfig {
        MigrateBatchConfig {
            vms: 8,
            vcpus: 2,
            data_pages: 256,
            working_set: 16,
            think: SimDuration::micros(5),
            warmup: SimDuration::millis(2),
            cores: 64,
            seed: 0xC0DE,
            pre_copy: true,
            tamper: false,
        }
    }

    /// The same batch without pre-copy rounds (full image ships inside
    /// the downtime window).
    pub fn stop_copy_only(mut self) -> MigrateBatchConfig {
        self.pre_copy = false;
        self
    }

    /// The same batch with every blob tampered in transit.
    pub fn with_tampering(mut self) -> MigrateBatchConfig {
        self.tamper = true;
        self
    }
}

/// Outcome of one migration batch.
#[derive(Debug, Clone)]
pub struct MigrateBatchResult {
    /// Migrations attempted (= configured VMs).
    pub migrations: u64,
    /// Migrations that completed on the destination.
    pub completed: u64,
    /// Migrations aborted by a rejected import.
    pub aborted: u64,
    /// Aborts whose VM verifiably resumed on the source.
    pub resumed_on_source: u64,
    /// Downtime p50 (µs) over all attempts.
    pub downtime_p50_us: f64,
    /// Downtime p99 (µs) over all attempts.
    pub downtime_p99_us: f64,
    /// Mean end-to-end migration time (µs).
    pub total_mean_us: f64,
    /// Mean pre-copy rounds per migration.
    pub rounds_mean: f64,
    /// Granules shipped by pre-copy rounds (guest still running).
    pub granules_precopy: u64,
    /// Granules shipped inside downtime windows.
    pub granules_stopcopy: u64,
    /// Frames re-sent after injected drops.
    pub frames_retransmitted: u64,
    /// Rounds lengthened by injected stalls.
    pub rounds_stalled: u64,
    /// Imports the destination RMM rejected (audited).
    pub imports_rejected: u64,
    /// Dirty writes the fleet issued over the whole run.
    pub guest_writes: u64,
    /// Deterministic fingerprint of the source node's metrics.
    pub src_fingerprint: u64,
    /// Deterministic fingerprint of the destination node's metrics.
    pub dst_fingerprint: u64,
}

/// Runs the migration batch and reports the outcome.
///
/// Records through the observability bundle `obs` (attached to the
/// source node — where the protocol runs).
pub fn run_migrate_batch(cfg: &MigrateBatchConfig, obs: &Obs) -> MigrateBatchResult {
    let mut node = SystemConfig::paper_default();
    node.machine.num_cores = cfg.cores;
    node.seed = cfg.seed;
    if cfg.tamper {
        node.fault = FaultPlan::migrate_tampering(1.0);
    }
    let mut cluster = Cluster::homogeneous(node, 2);
    cluster.node_mut(0).attach_obs(obs);

    let mut vms = Vec::new();
    for _ in 0..cfg.vms {
        let spec = VmSpec::core_gapped(cfg.vcpus).with_data_pages(cfg.data_pages);
        let guest = Dirtier::new(cfg.vcpus, cfg.working_set, cfg.think);
        let vm = cluster
            .node_mut(0)
            .add_vm(spec, Box::new(guest), None)
            .expect("the fleet fits the source node");
        vms.push(vm);
    }
    cluster.run_for(cfg.warmup);

    let mcfg = if cfg.pre_copy {
        MigrateConfig::new()
    } else {
        MigrateConfig::new().stop_copy_only()
    };
    let mut r = MigrateBatchResult {
        migrations: 0,
        completed: 0,
        aborted: 0,
        resumed_on_source: 0,
        downtime_p50_us: 0.0,
        downtime_p99_us: 0.0,
        total_mean_us: 0.0,
        rounds_mean: 0.0,
        granules_precopy: 0,
        granules_stopcopy: 0,
        frames_retransmitted: 0,
        rounds_stalled: 0,
        imports_rejected: 0,
        guest_writes: 0,
        src_fingerprint: 0,
        dst_fingerprint: 0,
    };
    let mut downtime = Samples::default();
    let mut total = Samples::default();
    let mut rounds = Samples::default();
    for vm in vms {
        let out = cluster
            .migrate_vm(vm, 0, 1, &mcfg)
            .expect("migration protocol errors are bugs, aborts are outcomes");
        r.migrations += 1;
        if out.aborted {
            r.aborted += 1;
            r.resumed_on_source += u64::from(out.resumed_on_source);
        } else {
            r.completed += 1;
        }
        downtime.record(out.downtime.as_micros_f64());
        total.record(out.total.as_micros_f64());
        rounds.record(f64::from(out.rounds));
        r.granules_precopy += out.granules_precopy;
        r.granules_stopcopy += out.granules_stopcopy;
        r.frames_retransmitted += out.frames_retransmitted;
        r.rounds_stalled += out.rounds_stalled;
        // The rest of the fleet keeps running between drains.
        cluster.run_for(SimDuration::millis(1));
    }
    r.downtime_p50_us = downtime.percentile(50.0);
    r.downtime_p99_us = downtime.percentile(99.0);
    r.total_mean_us = total.to_online().mean();
    r.rounds_mean = rounds.to_online().mean();
    r.imports_rejected = cluster
        .node(1)
        .rmm()
        .counters()
        .get("rmm.migrate.import_rejected");
    for node in 0..cluster.num_nodes() {
        let s = cluster.node(node);
        for vm in 0..s.vm_count() {
            r.guest_writes += s
                .vm_report(crate::system::VmId(vm))
                .stats
                .counters
                .get("dirtier.writes");
        }
    }
    r.src_fingerprint = cluster.node(0).metrics().fingerprint();
    r.dst_fingerprint = cluster.node(1).metrics().fingerprint();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> MigrateBatchConfig {
        MigrateBatchConfig {
            vms: 2,
            cores: 16,
            warmup: SimDuration::millis(1),
            ..MigrateBatchConfig::paper_default()
        }
    }

    #[test]
    fn precopy_batch_drains_the_source() {
        let r = run_migrate_batch(&quick(), &Obs::disabled());
        assert_eq!(r.completed, 2);
        assert_eq!(r.aborted, 0);
        assert_eq!(r.imports_rejected, 0);
        assert!(r.rounds_mean >= 1.0);
        assert!(r.downtime_p99_us > 0.0);
        assert!(r.guest_writes > 0);
    }

    #[test]
    fn tampered_batch_aborts_and_resumes_every_vm() {
        let r = run_migrate_batch(&quick().with_tampering(), &Obs::disabled());
        assert_eq!(r.completed, 0);
        assert_eq!(r.aborted, 2);
        assert_eq!(r.resumed_on_source, 2);
        assert_eq!(r.imports_rejected, 2);
    }

    #[test]
    fn batches_replay_byte_identically() {
        let a = run_migrate_batch(&quick(), &Obs::disabled());
        let b = run_migrate_batch(&quick(), &Obs::disabled());
        assert_eq!(a.src_fingerprint, b.src_fingerprint);
        assert_eq!(a.dst_fingerprint, b.dst_fingerprint);
        assert_eq!(a.downtime_p99_us, b.downtime_p99_us);
    }
}
