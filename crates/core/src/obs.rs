//! The observability bundle: span profiler + time-series sampler.
//!
//! A bench run creates one [`Obs`] and threads it through every
//! [`System`] it builds (via [`System::attach_obs`]); the shared
//! profiler/time-series handles are rebased at each attach so the
//! sequential runs lay out one after another on a single exported
//! timeline. Everything is off by default and free when disabled.

use cg_machine::CoreId;
use cg_sim::{FlightRecorder, Profiler, SimDuration, TimeSeries};

use crate::event::SystemEvent;
use crate::system::System;

/// Column names pushed by the periodic sampler, in order.
pub(crate) const COLUMNS: [&str; 7] = [
    "host_util",
    "chan_requests",
    "chan_responses",
    "exits_total",
    "l1_warm",
    "bp_warm",
    "llc_taints",
];

/// Default period between time-series samples.
pub const DEFAULT_SAMPLE_PERIOD: SimDuration = SimDuration::micros(500);

/// Shared observability sinks for one experiment run (or a sequence of
/// runs exported on one timeline).
#[derive(Debug, Clone)]
pub struct Obs {
    /// Span profiler sink ([`cg_sim::SpanKind`] taxonomy).
    pub profiler: Profiler,
    /// Time-series sampler sink.
    pub timeseries: TimeSeries,
    /// Always-on bounded flight recorder shared by every system this
    /// bundle attaches to (a ring, so "always on" stays cheap).
    pub flight: FlightRecorder,
    /// Period of the self-rescheduling sampling event (ignored when
    /// `timeseries` is disabled).
    pub sample_period: SimDuration,
}

impl Obs {
    /// A fully disabled bundle: attaching it costs nothing. The flight
    /// recorder stays live even here — it is a bounded ring, and fault
    /// recovery must be able to dump context unconditionally.
    pub fn disabled() -> Obs {
        Obs {
            profiler: Profiler::disabled(),
            timeseries: TimeSeries::disabled(),
            flight: FlightRecorder::new(),
            sample_period: SimDuration::ZERO,
        }
    }

    /// A bundle capturing spans only.
    pub fn spans() -> Obs {
        Obs {
            profiler: Profiler::capture(),
            ..Obs::disabled()
        }
    }

    /// A bundle capturing the periodic time series at `period`.
    pub fn sampled(period: SimDuration) -> Obs {
        Obs {
            timeseries: TimeSeries::capture(),
            sample_period: period,
            ..Obs::disabled()
        }
    }

    /// A bundle capturing both spans and the periodic time series.
    pub fn full(period: SimDuration) -> Obs {
        Obs {
            profiler: Profiler::capture(),
            timeseries: TimeSeries::capture(),
            sample_period: period,
            ..Obs::disabled()
        }
    }

    /// Whether any sink records.
    pub fn is_enabled(&self) -> bool {
        self.profiler.is_enabled() || self.timeseries.is_enabled()
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::disabled()
    }
}

impl System {
    /// Handles one periodic observability sample: snapshots the gauges
    /// into the time series and reschedules while work remains.
    pub(crate) fn on_obs_sample(&mut self, period_ns: u64) {
        let now = self.queue.now();
        self.timeseries.set_columns(&COLUMNS);
        // Interval utilisation across the host cores.
        let host_cores = self.config.num_host_cores as usize;
        let busy: u64 = self.metrics.host_busy_ns[..host_cores].iter().sum();
        let delta = busy.saturating_sub(self.ts_prev_busy);
        self.ts_prev_busy = busy;
        let cap = period_ns.saturating_mul(host_cores as u64);
        let host_util = if cap == 0 {
            0.0
        } else {
            delta as f64 / cap as f64
        };
        // Run-channel occupancy and cumulative exit counts.
        let (mut requests, mut responses) = (0u64, 0u64);
        let mut exits_total = 0u64;
        for vm in &self.vms {
            for ch in &vm.run_channels {
                match ch.state() {
                    cg_rpc::ChannelState::Requested | cg_rpc::ChannelState::Serving => {
                        requests += 1
                    }
                    cg_rpc::ChannelState::Responded => responses += 1,
                    cg_rpc::ChannelState::Idle => {}
                }
            }
            if vm.kvm.mode().is_confidential() {
                for i in 0..vm.kvm.num_vcpus() {
                    if let Some(rec) = self.rmm.rec(vm.kvm.rec(i)) {
                        exits_total += rec.exits_total();
                    }
                }
            } else {
                exits_total += vm.kvm.counters().get("kvm.exit.total");
            }
        }
        // Mean warmth of each core's currently-resident domain (idle
        // cores contribute zero).
        let (mut l1, mut bp) = (0.0f64, 0.0f64);
        let n = self.machine.num_cores();
        for i in 0..n {
            let core = CoreId(i);
            if let Some(d) = self.machine.cpu(core).current_domain() {
                l1 += self.machine.microarch(core).l1_residency(d);
                bp += self.machine.microarch(core).bp_residency(d);
            }
        }
        self.timeseries.push(
            now,
            &[
                host_util,
                requests as f64,
                responses as f64,
                exits_total as f64,
                l1 / f64::from(n),
                bp / f64::from(n),
                self.machine.llc_taint_count() as f64,
            ],
        );
        // Keep sampling while any VM still runs (or before VMs exist, so
        // a sampler attached early still sees the whole run).
        let all_done = !self.vms.is_empty() && self.vms.iter().all(|vm| vm.kvm.all_finished());
        if let Some(i) = self.obs_pending.iter().position(|&t| t == now) {
            self.obs_pending.swap_remove(i);
        }
        if !all_done {
            self.schedule_obs_sample(period_ns);
        }
    }

    /// Schedules the next time-series sample `period_ns` from now.
    pub(crate) fn schedule_obs_sample(&mut self, period_ns: u64) {
        let at = self.queue.now() + SimDuration::nanos(period_ns);
        self.obs_pending.push(at);
        self.queue
            .schedule_at(at, SystemEvent::ObsSample { period_ns });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, VmSpec};
    use cg_workloads::iozone::Iozone;
    use cg_workloads::kernel::GuestKernel;

    /// Pins the sampler schema: the names in [`COLUMNS`] must line up,
    /// position by position, with the values [`System::on_obs_sample`]
    /// pushes. Reordering either side without the other trips the
    /// per-column semantic checks below (fractions stay in `[0, 1]`,
    /// counters stay integral and monotone).
    #[test]
    fn sampler_columns_match_pushed_values() {
        let obs = Obs::sampled(SimDuration::micros(200));
        let mut config = SystemConfig::small();
        config.rmm = cg_rmm::RmmConfig::shared_core();
        config.num_host_cores = 2;
        let mut system = System::new(config);
        system.attach_obs(&obs);
        // Shared-core virtio-blk I/O: every submission kicks through a
        // KVM exit, so `exits_total` is guaranteed non-zero (a
        // core-gapped CPU-bound guest would delegate its way to zero).
        let guest = GuestKernel::new(1, 250, Box::new(Iozone::new(vec![(4096, false, 50)], 0)));
        system
            .add_vm(
                VmSpec::shared_core(1).with_device(cg_host::DeviceKind::VirtioBlk),
                Box::new(guest),
                None,
            )
            .expect("iozone VM");
        system.run_for(SimDuration::millis(20));

        assert_eq!(obs.timeseries.columns(), COLUMNS);
        let rows = obs.timeseries.rows();
        assert!(rows.len() >= 5, "sampler fired only {} times", rows.len());
        let col = |name: &str| {
            COLUMNS
                .iter()
                .position(|c| *c == name)
                .unwrap_or_else(|| panic!("column `{name}` missing"))
        };
        let fractions = ["host_util", "l1_warm", "bp_warm"].map(col);
        let counters = [
            "chan_requests",
            "chan_responses",
            "exits_total",
            "llc_taints",
        ]
        .map(col);
        let exits = col("exits_total");
        let mut prev_exits = 0.0;
        for (t, values) in &rows {
            assert_eq!(values.len(), COLUMNS.len(), "row width at {t} ns");
            for &i in &fractions {
                assert!(
                    (0.0..=1.0).contains(&values[i]),
                    "fractional column `{}` = {} at {t} ns",
                    COLUMNS[i],
                    values[i]
                );
            }
            for &i in &counters {
                assert_eq!(
                    values[i].fract(),
                    0.0,
                    "count column `{}` = {} at {t} ns",
                    COLUMNS[i],
                    values[i]
                );
            }
            assert!(
                values[exits] >= prev_exits,
                "exits_total regressed at {t} ns"
            );
            prev_exits = values[exits];
        }
        assert!(prev_exits > 0.0, "a 20 ms run must record REC exits");
    }
}
