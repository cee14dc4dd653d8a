//! Event dispatch: what each [`SystemEvent`] does.

use cg_host::VmExecMode;
use cg_machine::{CoreId, IntId};
use cg_rmm::Disposition;
use cg_sim::{SimDuration, SimTime};

use crate::event::SystemEvent;
use crate::exec::GuestCont;
use crate::system::{CallTimer, CoreRun, System, ThreadCont, VmId, CVM_EXIT_SGI, IO_KICK_SGI};

impl System {
    /// Dispatches one event.
    pub(crate) fn handle(&mut self, ev: SystemEvent) {
        match ev {
            SystemEvent::SegmentEnd { core, epoch } => self.on_segment_end(core, epoch),
            SystemEvent::PhysTimerFire { core, generation } => self.on_phys_timer(core, generation),
            SystemEvent::IpiArrive { core, intid } => self.on_ipi(core, intid),
            SystemEvent::DeviceIrqArrive {
                core,
                vm,
                device,
                ctx,
            } => self.on_device_irq(core, vm, device, ctx),
            SystemEvent::RunRequestVisible { vm, vcpu } => self.on_run_request(vm, vcpu),
            SystemEvent::EmulTimerFire {
                vm,
                vcpu,
                deadline_ns,
            } => self.on_emul_timer(vm, vcpu, deadline_ns),
            SystemEvent::WireToPeer { vm, pkt } => self.on_wire_to_peer(vm, pkt),
            SystemEvent::WireToGuest {
                vm,
                device,
                bytes,
                flow,
            } => self.on_wire_to_guest(vm, device, bytes, flow),
            SystemEvent::ObsSample { period_ns } => self.on_obs_sample(period_ns),
            SystemEvent::DiskDone {
                vm,
                device,
                tag,
                ctx,
            } => self.on_disk_done(vm, device, tag, ctx),
            SystemEvent::HarassTick {
                vm,
                vcpu,
                period_ns,
            } => self.on_harass_tick(vm, vcpu, period_ns),
            SystemEvent::CallTimeout { vm, vcpu, seq } => self.on_call_timeout(vm, vcpu, seq),
            SystemEvent::WatchdogTick { period_ns } => self.on_watchdog_tick(period_ns),
            SystemEvent::DefragTick { period_ns } => self.on_defrag_tick(period_ns),
        }
    }

    fn on_segment_end(&mut self, core: CoreId, epoch: u64) {
        let cs = &mut self.cores[core.index()];
        if cs.epoch != epoch {
            return; // stale (truncated) segment
        }
        cs.seg_token = None;
        let wall = cs.seg_wall;
        match cs.run {
            CoreRun::HostThread { tid } => {
                self.account_host_busy_pub(core, wall);
                self.thread_segment_done(core, tid);
            }
            CoreRun::Guest { .. } => self.guest_segment_done(core),
            other => unreachable!("segment completed on {core} in state {other:?}"),
        }
    }

    pub(crate) fn account_host_busy_pub(&mut self, core: CoreId, wall: SimDuration) {
        if core.index() < self.config.num_host_cores as usize {
            self.metrics.add_host_busy(core.index(), wall);
        }
    }

    fn on_phys_timer(&mut self, core: CoreId, generation: u64) {
        if !self.machine.timer_mut(core).fire(generation) {
            return; // reprogrammed or cancelled
        }
        match self.cores[core.index()].run {
            CoreRun::Guest { vm, vcpu } => {
                self.interrupt_gapped_guest_or_shared(core, vm, vcpu, IntId::VTIMER);
            }
            CoreRun::GuestWfi { vm, vcpu } => {
                self.wake_idle_guest(core, vm, vcpu, IntId::VTIMER);
            }
            _ => {
                // The vCPU that armed this timer is not on the core
                // (shared mode, thread blocked or handling an exit): the
                // host's timer interrupt queues the virtual interrupt.
                if let Some((vm, vcpu)) = self.core_vcpu[core.index()] {
                    if self.vms[vm.0].kvm.mode() == VmExecMode::SharedCore {
                        self.host_irq_steal(core, self.config.machine.irq_entry);
                        let actions = self.vms[vm.0]
                            .kvm
                            .queue_irq(vcpu, IntId::VTIMER)
                            .into_iter()
                            .collect::<Vec<_>>();
                        for a in actions {
                            self.apply_host_action(vm, a);
                        }
                    }
                }
            }
        }
    }

    /// Routes a physical interrupt into a core currently running or
    /// idling a guest.
    fn interrupt_gapped_guest_or_shared(
        &mut self,
        core: CoreId,
        vm: VmId,
        vcpu: u32,
        intid: IntId,
    ) {
        self.interrupt_gapped_guest(core, vm, vcpu, intid);
    }

    fn wake_idle_guest(&mut self, core: CoreId, vm: VmId, vcpu: u32, intid: IntId) {
        let rec = self.vms[vm.0].kvm.rec(vcpu);
        self.machine.gic_mut().raise(core, intid);
        let disp = self.rmm.on_idle_irq(core, rec, intid, &mut self.machine);
        self.cores[core.index()].run = CoreRun::Guest { vm, vcpu };
        match disp {
            Disposition::Resume { cost } => {
                self.start_guest_segment(core, cost, SimDuration::ZERO, GuestCont::OpDone);
            }
            Disposition::ExitToHost { exit, cost } => {
                // Leaving WFI for the host: the REC exits.
                self.start_guest_segment(
                    core,
                    cost,
                    SimDuration::ZERO,
                    GuestCont::ExitPost { exit },
                );
            }
            Disposition::Idle { .. } => {
                // The RMM refused to inject (e.g. a forged IVC doorbell
                // for a channel this vCPU is no endpoint of): the guest
                // stays in WFI — the victim must not even wake. Preserve
                // the recent hop history around the rejection.
                self.cores[core.index()].run = CoreRun::GuestWfi { vm, vcpu };
                self.mirror_ivc_rejections();
                self.flight.dump(self.queue.now(), "rmm.doorbell_rejected");
            }
            other => unreachable!("idle irq disposition {other:?}"),
        }
    }

    fn on_ipi(&mut self, core: CoreId, intid: IntId) {
        self.metrics.counters.incr("ipi.delivered");
        self.strace
            .record(cg_sim::TraceKind::Irq, Some(core.0), || {
                format!("ipi.arrive {intid}")
            });
        if intid == CVM_EXIT_SGI {
            // The CVM-exit doorbell at the host core.
            self.host_irq_steal(core, self.config.machine.irq_entry);
            self.doorbell.acknowledge();
            let Some(w) = &mut self.wakeup else { return };
            if w.on_doorbell() {
                let tid = w.thread();
                self.set_cont(tid, ThreadCont::WakeupScan);
                let (wcore, preempts) = self.sched.wake(tid);
                self.after_wake(wcore, preempts);
            }
            return;
        }
        if intid == IO_KICK_SGI {
            // The fast-path kick doorbell at the host core.
            self.host_irq_steal(core, self.config.machine.irq_entry);
            self.io_doorbell.acknowledge();
            self.io_kick_rung_at = None;
            self.wake_io_plane();
            return;
        }
        match self.cores[core.index()].run {
            CoreRun::Guest { vm, vcpu } => {
                self.interrupt_gapped_guest(core, vm, vcpu, intid);
            }
            CoreRun::GuestWfi { vm, vcpu } => {
                self.wake_idle_guest(core, vm, vcpu, intid);
            }
            CoreRun::RmmPolling => {
                // Kick for a vCPU that already exited: nothing to do.
            }
            _ => {
                // Host-core IPI with no special meaning here.
                self.host_irq_steal(core, self.config.machine.irq_entry);
            }
        }
        if intid.is_spi() {
            // An IVC doorbell may just have been validated (and possibly
            // rejected) by the RMM: fold any new rejections into the
            // fingerprinted system counters.
            self.mirror_ivc_rejections();
        }
    }

    fn on_device_irq(&mut self, core: CoreId, vm: VmId, device: u32, ctx: cg_sim::TraceCtx) {
        // Direct delivery: the SPI was routed to the CVM's dedicated
        // core and the RMM injects it without host involvement.
        // Fast-path completion interrupts are always delegated this way.
        if self.config.rmm.direct_device_delivery
            || self.vms[vm.0].devices[device as usize].fastpath()
        {
            let spi = self.vms[vm.0].devices[device as usize].spi;
            match self.cores[core.index()].run {
                CoreRun::Guest { vm: gvm, vcpu } if gvm == vm => {
                    self.record_rmm_inject(gvm, vcpu, core, ctx);
                    self.interrupt_gapped_guest(core, gvm, vcpu, IntId::spi(spi));
                    return;
                }
                CoreRun::GuestWfi { vm: gvm, vcpu } if gvm == vm => {
                    self.record_rmm_inject(gvm, vcpu, core, ctx);
                    self.wake_idle_guest(core, gvm, vcpu, IntId::spi(spi));
                    return;
                }
                CoreRun::RmmPolling => {
                    // The vCPU is between runs: ride the next entry list.
                    self.deliver_device_irq_actions(vm, device);
                    return;
                }
                _ => {}
            }
        }
        // The SPI reached its routed (host) core: in-kernel handling
        // queues the guest interrupt and kicks/unblocks the vCPU.
        let cost = self.config.machine.irq_entry + self.config.host.irq_inject;
        match self.cores[core.index()].run {
            CoreRun::Guest { vm: gvm, vcpu }
                if !matches!(self.vms[gvm.0].kvm.mode(), VmExecMode::CoreGapped) =>
            {
                // Shared-mode guest occupying the host core: the IRQ
                // forces an exit; interrupt handling happens in the exit
                // path.
                let _ = (vm, device);
                self.preempt_shared_guest(core, gvm, vcpu, cg_cca::RecExitReason::HostInterrupt);
                self.deliver_device_irq_actions(vm, device);
            }
            _ => {
                self.host_irq_steal(core, cost);
                self.deliver_device_irq_actions(vm, device);
            }
        }
    }

    /// Records the RMM's direct-injection hop for a traced delegated
    /// interrupt: a zero-length [`cg_sim::SpanKind::RmmInject`] child
    /// (the injection is event-edge work inside delivery costs already
    /// charged) plus its flight-recorder hop. Untraced deliveries record
    /// nothing.
    fn record_rmm_inject(&mut self, vm: VmId, vcpu: u32, core: CoreId, ctx: cg_sim::TraceCtx) {
        if ctx.is_null() {
            return;
        }
        let now = self.queue.now();
        let realm = self.vms[vm.0].kvm.realm().0;
        self.profiler.record_span_child(
            cg_sim::SpanKind::RmmInject,
            Some(core.0),
            Some(realm),
            Some(vcpu),
            now,
            now,
            ctx,
        );
        self.flight
            .record(now, ctx.trace, "rmm.inject", Some(core.0), Some(realm));
    }

    fn deliver_device_irq_actions(&mut self, vm: VmId, device: u32) {
        // Inject only when the guest actually has something to pick up
        // (an irq whose work NAPI already consumed needs no forwarding).
        // Every vCPU with an outstanding completion gets its own
        // injection — delivering to only one would strand the others in
        // WFI.
        let targets = self.device_irq_targets(vm, device);
        if targets.is_empty() {
            return;
        }
        let spi = self.vms[vm.0].devices[device as usize].spi;
        for vcpu in targets {
            let actions = self.vms[vm.0]
                .kvm
                .queue_irq(vcpu, IntId::spi(spi))
                .into_iter()
                .collect::<Vec<_>>();
            for a in actions {
                self.apply_host_action(vm, a);
            }
        }
    }

    /// The vCPUs a device's completion interrupt targets: every owner of
    /// an outstanding disk tag, plus vCPU 0 for network payloads and
    /// payload-free notifications.
    fn device_irq_targets(&mut self, vm: VmId, device: u32) -> Vec<u32> {
        let d = &self.vms[vm.0].devices[device as usize];
        let mut targets: Vec<u32> = d
            .done_queue
            .iter()
            .filter_map(|tag| d.tag_owner.get(tag).copied())
            .collect();
        if !d.rx_inbox.is_empty() || d.pending_notify > 0 {
            targets.push(0);
        }
        // Fast path: every vCPU whose pair has unconsumed used entries.
        for (q, pair) in d.queues.iter().enumerate() {
            if pair.tx.used_len() > 0 || pair.rx.used_len() > 0 {
                targets.push(q as u32);
            }
        }
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    fn on_run_request(&mut self, vm: VmId, vcpu: u32) {
        // Retries duplicate this notice: whichever fires first takes the
        // request, and later copies find the channel already past
        // `Requested`. Drop stale notices before asserting anything
        // about the core's state.
        if !self.vms[vm.0].run_channels[vcpu as usize].has_request() {
            self.metrics.counters.incr("rpc.stale_run_notice");
            return;
        }
        let core = self.vms[vm.0].vcpus[vcpu as usize].core;
        assert_eq!(
            self.cores[core.index()].run,
            CoreRun::RmmPolling,
            "run request arrived while {core} busy"
        );
        let now = self.queue.now();
        let machine_params = self.config.machine.clone();
        let msg = self.vms[vm.0].run_channels[vcpu as usize]
            .take_request(now, &machine_params)
            .expect("run request visible when scheduled");
        self.park_call_timeout(vm, vcpu);
        // The dedicated core's RMM re-enters the realm on behalf of the
        // host's request: a zero-length injection marker links the entry
        // into the request's trace (the REC_ENTER cost is the following
        // guest segment).
        let req_ctx = self.vms[vm.0].run_channels[vcpu as usize].request_ctx();
        let realm = self.vms[vm.0].kvm.realm().0;
        self.profiler.record_span_child(
            cg_sim::SpanKind::RmmInject,
            Some(core.0),
            Some(realm),
            Some(vcpu),
            now,
            now,
            req_ctx,
        );
        self.flight
            .record(now, req_ctx.trace, "rmm.enter", Some(core.0), Some(realm));
        let rec = self.vms[vm.0].kvm.rec(vcpu);
        let out = self.rmm.rec_enter_with_list(
            core,
            rec,
            &msg.entry.pending_interrupts,
            &mut self.machine,
        );
        assert!(
            out.status.is_success(),
            "REC_ENTER failed for {rec}: {:?}",
            out.status
        );
        self.metrics.counters.incr("rmm.rec_enter");
        self.trace.emit(
            now,
            cg_sim::TraceLevel::Info,
            "system.enter",
            format!("{vm}.vcpu{vcpu} enters on {core}"),
        );
        self.strace
            .record(cg_sim::TraceKind::Rpc, Some(core.0), || {
                format!("run.enter {vm}.vcpu{vcpu}")
            });
        self.cores[core.index()].run = CoreRun::Guest { vm, vcpu };
        self.start_guest_segment(core, out.cost, SimDuration::ZERO, GuestCont::OpDone);
    }

    fn on_emul_timer(&mut self, vm: VmId, vcpu: u32, deadline_ns: u64) {
        let now = SimTime::from_nanos(deadline_ns).max(self.queue.now());
        let actions = self.vms[vm.0].kvm.emul_timer_fire(vcpu, now);
        if actions.is_empty() {
            return; // stale
        }
        // The hrtimer fires in host interrupt context on the host core.
        let host_core = self.host_cores()[0];
        let mut steal = self.config.machine.irq_entry;
        for a in actions {
            match a {
                cg_host::HostAction::Work { cost, .. } => steal += cost,
                other => self.apply_host_action(vm, other),
            }
        }
        self.host_irq_steal(host_core, steal);
    }

    fn on_wire_to_peer(&mut self, vm: VmId, pkt: cg_workloads::PeerPacket) {
        let now = self.queue.now();
        let replies = match &mut self.vms[vm.0].peer {
            Some(p) => p.on_packet(pkt, now),
            None => Vec::new(),
        };
        let wire = self.config.host.nic_wire_latency;
        // Replies land on the VM's first network device.
        if let Some(device) = self.vms[vm.0].devices.iter().position(|d| {
            matches!(
                d.kind,
                cg_host::DeviceKind::VirtioNet | cg_host::DeviceKind::SriovNic
            )
        }) {
            for (delay, reply) in replies {
                self.queue.schedule_after(
                    delay + wire,
                    SystemEvent::WireToGuest {
                        vm,
                        device: device as u32,
                        bytes: reply.bytes,
                        flow: reply.flow,
                    },
                );
            }
        }
    }

    fn on_wire_to_guest(&mut self, vm: VmId, device: u32, bytes: u64, flow: u64) {
        let kind = self.vms[vm.0].devices[device as usize].kind;
        match kind {
            cg_host::DeviceKind::SriovNic => {
                // DMA directly into guest memory; delivery policy (NAPI
                // vs interrupt) decided in deliver_rx_to_guest.
                self.deliver_rx_to_guest(vm, device, bytes, flow);
            }
            _ => {
                // Emulated NIC: the VMM (or the I/O plane, on the fast
                // path) must process the packet first.
                self.vms[vm.0].devices[device as usize]
                    .rx_pending
                    .push_back((bytes, flow));
                if self.vms[vm.0].devices[device as usize].fastpath() {
                    self.wake_io_plane();
                } else if let Some(tid) = self.vms[vm.0].devices[device as usize].io_thread {
                    self.wake_thread_if_blocked(tid);
                }
            }
        }
    }

    /// The malicious host forces the victim vCPU to exit, over and over
    /// (the paper's §1 threat: "interrupt guest execution at inopportune
    /// moments to attempt to leak microarchitectural state").
    fn on_harass_tick(&mut self, vm: VmId, vcpu: u32, period_ns: u64) {
        if self.vms[vm.0].kvm.is_finished(vcpu) {
            return;
        }
        self.metrics.counters.incr("host.harass_kicks");
        if self.vms[vm.0].kvm.in_guest(vcpu) {
            self.apply_host_action(vm, cg_host::HostAction::KickVcpu { vcpu });
        }
        self.queue.schedule_after(
            SimDuration::nanos(period_ns),
            SystemEvent::HarassTick {
                vm,
                vcpu,
                period_ns,
            },
        );
    }

    /// Queues the in-flight call's timeout for `at`.
    pub(crate) fn arm_call_timeout(&mut self, vm: VmId, vcpu: u32, at: SimTime) {
        let seq = self.vms[vm.0].vcpus[vcpu as usize].call_seq;
        let token = self
            .queue
            .schedule_at(at, SystemEvent::CallTimeout { vm, vcpu, seq });
        self.vms[vm.0].vcpus[vcpu as usize].call_timer = CallTimer::Armed { token, at };
    }

    /// `Requested → Serving`: the guest now executes and cannot stall the
    /// call, so the timeout chain is parked rather than left to fire once
    /// per period until the exit.
    fn park_call_timeout(&mut self, vm: VmId, vcpu: u32) {
        let rt = &mut self.vms[vm.0].vcpus[vcpu as usize];
        if let CallTimer::Armed { token, at } = rt.call_timer {
            rt.call_timer = CallTimer::Parked { at };
            self.queue.cancel(token);
        }
    }

    /// `Serving → Responded`: re-queues a parked chain at its first point
    /// strictly after now, i.e. the instant the chain would have fired
    /// next had it kept re-arming every period while `Serving`. A point
    /// equal to now counts as passed: that hop would have been queued a
    /// period earlier than the event posting the exit, so it would have
    /// popped first and found the guest still executing.
    pub(crate) fn resume_call_timeout(&mut self, vm: VmId, vcpu: u32) {
        let rt = &self.vms[vm.0].vcpus[vcpu as usize];
        let CallTimer::Parked { at } = rt.call_timer else {
            return;
        };
        let now = self.queue.now();
        let next = if at > now {
            at
        } else {
            let period = self
                .config
                .recovery
                .retry_policy()
                .timeout_for(rt.call_attempt)
                .as_nanos()
                .max(1);
            let hops = now.duration_since(at).as_nanos() / period + 1;
            at + SimDuration::nanos(hops * period)
        };
        self.arm_call_timeout(vm, vcpu, next);
    }

    /// The client-side call timeout fired: decide whether the in-flight
    /// async run call needs a re-kick (poll notice lost), a re-ring
    /// (response doorbell lost), or nothing (stale), re-arming with
    /// exponential backoff.
    fn on_call_timeout(&mut self, vm: VmId, vcpu: u32, seq: u64) {
        use cg_rpc::ChannelState;
        let rt = &mut self.vms[vm.0].vcpus[vcpu as usize];
        if rt.call_seq != seq {
            self.metrics.counters.incr("rpc.timeout_stale");
            return;
        }
        rt.call_timer = CallTimer::Off;
        let vtid = rt.thread;
        let awaiting = matches!(
            self.threads.get(&vtid).map(|t| &t.cont),
            Some(ThreadCont::VcpuAwait { .. })
        );
        if !awaiting {
            // The response was already delivered (e.g. by the watchdog)
            // and the thread moved on without bumping the sequence yet.
            self.metrics.counters.incr("rpc.timeout_stale");
            return;
        }
        let now = self.queue.now();
        let policy = self.config.recovery.retry_policy();
        let state = self.vms[vm.0].run_channels[vcpu as usize].state();
        // The chain is parked while the guest executes.
        debug_assert_ne!(
            state,
            ChannelState::Serving,
            "call timeout fired for {vm}.vcpu{vcpu} while Serving"
        );
        let attempt = self.vms[vm.0].vcpus[vcpu as usize].call_attempt;
        match state {
            ChannelState::Idle | ChannelState::Serving => {
                self.metrics.counters.incr("rpc.timeout_stale");
            }
            ChannelState::Requested => {
                // The request is posted but the dedicated core never took
                // it: its poll notice was wedged. Re-kick it. The final
                // attempt bypasses injection (a real client's last resort
                // escalates to a synchronous call the host cannot
                // suppress), guaranteeing forward progress.
                let attempt = attempt + 1;
                let exhausted = attempt > policy.max_retries;
                self.vms[vm.0].vcpus[vcpu as usize].call_attempt = attempt;
                self.record_rpc_retry(vm, vcpu, attempt, "requested", now);
                if exhausted {
                    self.metrics.counters.incr("rpc.retries_exhausted");
                    self.flight.dump(now, "rpc.retries_exhausted");
                }
                if exhausted || !self.fault.wedge_request() {
                    let notice = now + self.config.machine.poll_iteration / 2;
                    self.queue
                        .schedule_at(notice, SystemEvent::RunRequestVisible { vm, vcpu });
                } else {
                    self.metrics.counters.incr("fault.request_wedged");
                }
                self.arm_call_timeout(vm, vcpu, now + policy.timeout_for(attempt));
            }
            ChannelState::Responded => {
                // The exit is posted but the doorbell never arrived.
                // Idempotently refresh the response's visibility and
                // re-ring by scheduling the IPI directly: the doorbell
                // latch may be stuck pending from the lost ring, and
                // acknowledge() on arrival heals it for future rings.
                let attempt = attempt + 1;
                let exhausted = attempt > policy.max_retries;
                self.vms[vm.0].vcpus[vcpu as usize].call_attempt = attempt;
                self.record_rpc_retry(vm, vcpu, attempt, "responded", now);
                if exhausted {
                    self.metrics.counters.incr("rpc.retries_exhausted");
                    self.flight.dump(now, "rpc.retries_exhausted");
                }
                self.rmm.note_response_repost();
                self.metrics.counters.incr("rmm.response_reposts");
                let _ = self.vms[vm.0].run_channels[vcpu as usize].repost_response(now);
                if exhausted || !self.fault.drop_doorbell() {
                    let target = self.doorbell.target();
                    self.queue.schedule_after(
                        self.config.machine.ipi_deliver,
                        SystemEvent::IpiArrive {
                            core: target,
                            intid: CVM_EXIT_SGI,
                        },
                    );
                } else {
                    self.metrics.counters.incr("fault.doorbell_dropped");
                }
                self.arm_call_timeout(vm, vcpu, now + policy.timeout_for(attempt));
            }
        }
    }

    /// Counts, traces, and profiles one retry decision.
    fn record_rpc_retry(
        &mut self,
        vm: VmId,
        vcpu: u32,
        attempt: u32,
        why: &'static str,
        now: SimTime,
    ) {
        self.metrics.counters.incr("rpc.retries");
        let realm = self.vms[vm.0].kvm.realm().0;
        self.strace.record_vm(
            cg_sim::TraceKind::Rpc,
            None,
            Some(realm),
            Some(vcpu),
            || format!("rpc.retry attempt={attempt} stuck={why}"),
        );
        if self.profiler.is_enabled() {
            self.profiler.record_span(
                cg_sim::SpanKind::RpcRetry,
                None,
                Some(realm),
                Some(vcpu),
                now,
                now,
            );
        }
    }

    /// The wake-up thread's periodic watchdog rescan: a cheap
    /// timer-interrupt-context check on the host core that activates the
    /// thread if a visible posted exit is stranded with no doorbell
    /// coming — the hole a dropped IPI otherwise leaves open forever.
    fn on_watchdog_tick(&mut self, period_ns: u64) {
        let period = SimDuration::nanos(period_ns);
        if self.config.recovery.enabled && !period.is_zero() {
            self.queue
                .schedule_after(period, SystemEvent::WatchdogTick { period_ns });
        }
        let now = self.queue.now();
        if self.wakeup.is_some() {
            self.wakeup_watchdog_scan(now);
        }
        self.io_watchdog_scan(now);
        self.ivc_watchdog_scan(now);
        self.elastic_watchdog_scan(now);
        self.mirror_ivc_rejections();
    }

    /// The inter-CVM-channel half of the watchdog tick: rings the
    /// channel doorbell again for any direction with published messages
    /// that have sat unobserved longer than a healthy realm-to-realm
    /// delivery takes — healing dropped (or misrouted) doorbells
    /// without host involvement in the happy path.
    fn ivc_watchdog_scan(&mut self, now: SimTime) {
        if self.ivc.is_empty() {
            return;
        }
        let grace = {
            let p = &self.config.machine;
            (p.mailbox_write + p.ipi_deliver + p.irq_entry) * 4
        };
        let mut stranded: Vec<(usize, bool)> = Vec::new();
        for (i, ch) in self.ivc.iter().enumerate() {
            for (a_to_b, dir) in [(true, &ch.a_to_b), (false, &ch.b_to_a)] {
                if dir.ring.pending() == 0 {
                    continue;
                }
                let Some(t) = dir.published_at else { continue };
                if now.duration_since(t) >= grace {
                    stranded.push((i, a_to_b));
                }
            }
        }
        for (i, a_to_b) in stranded {
            let (channel, spi) = (self.ivc[i].channel, self.ivc[i].spi);
            let to = if a_to_b {
                self.ivc[i].a_to_b.to
            } else {
                self.ivc[i].b_to_a.to
            };
            let core = self.vms[to.0 .0].vcpus[to.1 as usize].core;
            self.metrics.counters.incr("ivc.watchdog_recovered");
            self.flight.dump(now, "ivc.watchdog_recovered");
            self.strace
                .record(cg_sim::TraceKind::Irq, Some(core.0), || {
                    format!("ivc.watchdog re-ring ch{channel}")
                });
            // Refresh the stamp so the next tick doesn't re-fire while
            // this re-ring is still in flight.
            let dir = if a_to_b {
                &mut self.ivc[i].a_to_b
            } else {
                &mut self.ivc[i].b_to_a
            };
            dir.published_at = Some(now);
            self.queue.schedule_after(
                self.config.machine.ipi_deliver,
                SystemEvent::IpiArrive {
                    core,
                    intid: IntId::spi(spi),
                },
            );
        }
    }

    /// The wake-up-thread half of the watchdog tick: rescans run
    /// channels for stranded posted exits.
    fn wakeup_watchdog_scan(&mut self, now: SimTime) {
        let w = self.wakeup.as_ref().expect("caller checked");
        let host_core = self.doorbell.target();
        self.metrics.counters.incr("wakeup.watchdog_scans");
        let n = w.watched().len();
        let cost = self.config.machine.irq_entry
            + cg_host::WakeupThread::scan_cost(n, self.config.machine.poll_iteration);
        self.host_irq_steal(host_core, cost);
        // Zero-length marker: the scan's stolen time lands on the host
        // core via `host_irq_steal`, but dating the span's end past the
        // tick would break the profiler's rebase invariant (spans never
        // extend beyond the last popped event).
        if self.profiler.is_enabled() {
            self.profiler.record_span(
                cg_sim::SpanKind::WatchdogScan,
                Some(host_core.0),
                None,
                None,
                now,
                now,
            );
        }
        let suspended = !self.wakeup.as_ref().expect("checked above").is_active();
        // Only treat an exit as stranded once it has been visible longer
        // than any healthy doorbell delivery takes; probing at `now`
        // would race the in-flight IPI and burn an activation that wakes
        // nobody.
        let p = &self.config.machine;
        let grace = (p.mailbox_write + p.ipi_deliver + p.irq_entry) * 4;
        let probe = SimTime::from_nanos(now.as_nanos().saturating_sub(grace.as_nanos()));
        if suspended && !self.wakeup_scan_candidates(probe).is_empty() {
            // A visible exit with nobody coming to wake its thread: the
            // doorbell was dropped (or its latch wedged). Heal the latch
            // and activate the wake-up thread directly.
            self.metrics.counters.incr("wakeup.watchdog_recovered");
            self.flight.dump(now, "wakeup.watchdog_recovered");
            self.strace
                .record(cg_sim::TraceKind::Sched, Some(host_core.0), || {
                    "wakeup.watchdog found stranded exit".to_string()
                });
            self.doorbell.acknowledge();
            let w = self.wakeup.as_mut().expect("checked above");
            if w.on_watchdog() {
                let tid = w.thread();
                self.set_cont(tid, ThreadCont::WakeupScan);
                let (wcore, preempts) = self.sched.wake(tid);
                self.after_wake(wcore, preempts);
            }
        }
    }

    /// The I/O-plane half of the watchdog tick: re-announces stranded
    /// used-ring completions whose delegated interrupt was lost, and
    /// re-activates a suspended I/O thread that has published work
    /// waiting behind a dropped kick doorbell.
    fn io_watchdog_scan(&mut self, now: SimTime) {
        if self.iothread.is_none() {
            return;
        }
        self.metrics.counters.incr("io.watchdog_scans");
        let host_core = self.io_doorbell.target();
        self.host_irq_steal(host_core, self.config.machine.irq_entry);
        // Only treat a completion as stranded once it has sat in the
        // used ring longer than any healthy delegated delivery takes.
        let grace = {
            let p = &self.config.machine;
            (p.device_irq_deliver + p.irq_entry) * 4
        };
        let mut stranded: Vec<(VmId, u32, CoreId)> = Vec::new();
        for vm_idx in 0..self.vms.len() {
            for di in 0..self.vms[vm_idx].devices.len() {
                let d = &self.vms[vm_idx].devices[di];
                let Some(t) = d.completion_posted_at else {
                    continue;
                };
                if now.duration_since(t) < grace {
                    continue;
                }
                for (q, pair) in d.queues.iter().enumerate() {
                    if pair.tx.used_len() > 0 || pair.rx.used_len() > 0 {
                        let core = self.vms[vm_idx].vcpus[q].core;
                        stranded.push((VmId(vm_idx), di as u32, core));
                    }
                }
            }
        }
        for (vm, device, core) in stranded {
            self.metrics.counters.incr("io.watchdog_recovered");
            self.flight.dump(now, "io.watchdog_recovered");
            self.strace
                .record(cg_sim::TraceKind::Irq, Some(core.0), || {
                    format!("io.watchdog re-announce {vm} dev{device}")
                });
            // Refresh the stamp so the next tick doesn't re-fire while
            // this re-announcement is still in flight.
            self.vms[vm.0].devices[device as usize].completion_posted_at = Some(now);
            self.queue.schedule_after(
                self.config.machine.device_irq_deliver,
                SystemEvent::DeviceIrqArrive {
                    core,
                    vm,
                    device,
                    ctx: cg_sim::TraceCtx::NULL,
                },
            );
        }
        // Published-but-unserviced work with the I/O thread suspended:
        // the kick doorbell was dropped (or its latch wedged). Heal the
        // latch and activate the thread directly — but leave a freshly
        // rung doorbell alone: if the latch stamp is younger than a
        // healthy delivery, the IPI is still in flight and the normal
        // path will service the work without watchdog help.
        let kick_grace = {
            let p = &self.config.machine;
            (p.mailbox_write + p.ipi_deliver + p.irq_entry) * 4
        };
        let kick_in_flight = self.io_doorbell.is_pending()
            && self
                .io_kick_rung_at
                .is_some_and(|t| now.duration_since(t) < kick_grace);
        let suspended = !self.iothread.as_ref().expect("checked above").is_active();
        if suspended && !kick_in_flight && self.fastpath_work_pending() {
            self.metrics.counters.incr("io.watchdog_kicks");
            self.io_doorbell.acknowledge();
            let io = self.iothread.as_mut().expect("checked above");
            if io.on_watchdog() {
                let tid = io.thread();
                self.set_cont(tid, ThreadCont::IoPoll);
                let (wcore, preempts) = self.sched.wake(tid);
                self.after_wake(wcore, preempts);
            }
        }
    }

    fn on_disk_done(&mut self, vm: VmId, device: u32, tag: u64, ctx: cg_sim::TraceCtx) {
        if self.vms[vm.0].devices[device as usize].fastpath() {
            // Fast path: the completion goes straight onto the owner's
            // used ring; the interrupt (if not suppressed) is delegated
            // to that vCPU's dedicated core.
            let owner = self.vms[vm.0].devices[device as usize]
                .tag_owner
                .get(&tag)
                .copied()
                .unwrap_or(0);
            self.post_fastpath_completion(
                vm,
                device,
                owner,
                false,
                cg_virtio::Descriptor::disk(0, tag, false).with_ctx(ctx),
            );
            return;
        }
        self.vms[vm.0].devices[device as usize]
            .done_queue
            .push_back(tag);
        let spi_core = {
            let spi = self.vms[vm.0].devices[device as usize].spi;
            self.machine.gic().spi_route(spi)
        };
        // The completion SPI travels to its routed core.
        self.queue.schedule_after(
            self.config.machine.device_irq_deliver,
            SystemEvent::DeviceIrqArrive {
                core: spi_core,
                vm,
                device,
                ctx: cg_sim::TraceCtx::NULL,
            },
        );
    }
}
