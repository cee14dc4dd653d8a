//! Integration tests for cross-plane causal tracing: trace trees must
//! stay connected (even when fault injection drops doorbells and the
//! watchdog heals the request), traced requests must span several
//! execution contexts, the flight recorder must carry the hops of
//! healed requests, and the latency attribution must reconcile with the
//! measured end-to-end time.

use std::collections::{BTreeMap, BTreeSet};

use cg_core::experiments::io::{run_netpipe_fastpath, IoPathMode};
use cg_core::experiments::ivc::run_ivc_stream;
use cg_core::Obs;
use cg_sim::{FaultPlan, Histogram, SimDuration, Span};

/// Groups the traced spans of a snapshot by trace id.
fn by_trace(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut traces: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.trace != 0 {
            traces.entry(s.trace).or_default().push(s);
        }
    }
    traces
}

/// Asserts every trace in `spans` forms a single connected tree: one
/// root, every other span's parent inside the same trace.
fn assert_connected_trees(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let traces = by_trace(spans);
    assert!(!traces.is_empty(), "run produced no traced requests");
    for (trace, members) in &traces {
        let ids: BTreeSet<u64> = members.iter().map(|s| s.id).collect();
        let roots: Vec<_> = members.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(
            roots.len(),
            1,
            "trace {trace} has {} roots: {:?}",
            roots.len(),
            members.iter().map(|s| s.label).collect::<Vec<_>>()
        );
        for s in members {
            if s.parent != 0 {
                assert!(
                    ids.contains(&s.parent),
                    "trace {trace}: span {} ({}) parents outside its trace",
                    s.id,
                    s.label
                );
            }
            assert!(
                s.end.is_some(),
                "trace {trace}: span {} ({}) left open",
                s.id,
                s.label
            );
        }
    }
    traces
}

/// With 10% of inter-realm doorbells dropped, every request the
/// watchdog heals must still form one connected trace tree, and the
/// flight-recorder dump taken at recovery must contain the hops of a
/// traced request.
#[test]
fn doorbell_loss_heals_into_connected_trace_trees() {
    let obs = Obs::spans();
    let run = run_ivc_stream(
        4096,
        120,
        SimDuration::micros(5),
        42,
        FaultPlan::ivc_doorbell_loss(0.1),
        &obs,
    );
    assert!(
        run.stats.watchdog_recovered > 0,
        "10% loss over 120 messages must trigger the watchdog"
    );
    assert_eq!(run.received, 120, "every message heals through");

    let spans = obs.profiler.snapshot();
    let traces = assert_connected_trees(&spans);
    // Healed or not, a delivered message's trace ends in a drain hop.
    let drained: Vec<u64> = traces
        .iter()
        .filter(|(_, m)| m.iter().any(|s| s.label == "ivc.drain"))
        .map(|(t, _)| *t)
        .collect();
    assert!(!drained.is_empty(), "no trace reached ivc.drain");

    // Every watchdog recovery dumped the flight ring, and the ring
    // holds the causal trail: publish hops of traced requests that the
    // profiler also saw through to the drain.
    let dumps: Vec<_> = obs
        .flight
        .dumps()
        .into_iter()
        .filter(|d| d.reason == "ivc.watchdog_recovered")
        .collect();
    assert!(!dumps.is_empty(), "watchdog recovery must dump the ring");
    for dump in &dumps {
        let publishes: Vec<u64> = dump
            .events
            .iter()
            .filter(|e| e.hop == "ivc.publish" && e.trace != 0)
            .map(|e| e.trace)
            .collect();
        assert!(
            !publishes.is_empty(),
            "dump at {} ns carries no traced publish hop",
            dump.t.as_nanos()
        );
        assert!(
            publishes.iter().any(|t| drained.contains(t)),
            "dump at {} ns has no hop of a healed (drained) request",
            dump.t.as_nanos()
        );
    }
}

/// A fast-path virtio request must stitch across at least three
/// execution contexts (distinct `(realm, core)` attributions — e.g.
/// guest vCPU, host I/O thread, completion plane), and the export must
/// carry matching flow-event pairs.
#[test]
fn fastpath_request_crosses_three_contexts() {
    let obs = Obs::spans();
    run_netpipe_fastpath(IoPathMode::Fastpath, &[1500], 3, 42, &obs);
    let spans = obs.profiler.snapshot();
    let traces = assert_connected_trees(&spans);
    let best = traces
        .values()
        .map(|members| {
            members
                .iter()
                .map(|s| (s.realm, s.core))
                .collect::<BTreeSet<_>>()
                .len()
        })
        .max()
        .expect("at least one trace");
    assert!(
        best >= 3,
        "no request crossed 3 execution contexts (best: {best})"
    );

    let trace = obs.profiler.chrome_trace();
    let flow_starts = trace.matches("\"ph\":\"s\"").count();
    let flow_finishes = trace.matches("\"ph\":\"f\"").count();
    assert!(flow_starts > 0, "no flow events exported");
    assert_eq!(flow_starts, flow_finishes, "unbalanced flow events");
}

/// The per-plane attribution must reconcile: component p50s sum to the
/// measured end-to-end p50 within the histogram's relative error.
#[test]
fn attribution_components_sum_to_e2e() {
    let obs = Obs::spans();
    run_netpipe_fastpath(IoPathMode::Fastpath, &[1500], 5, 42, &obs);
    let report = cg_sim::attribute(&obs.profiler.snapshot());
    let virtio = report
        .planes
        .iter()
        .find(|p| p.plane == "virtio")
        .expect("virtio plane attributed");
    assert!(virtio.requests > 0);
    let e2e = virtio.e2e_us.percentile(50.0);
    let sum = virtio.component_p50_sum();
    assert!(e2e > 0.0);
    // Each of the four components and the e2e are independently
    // bucketed, so the reconciliation tolerance is one relative error
    // per histogram.
    let tol = 5.0 * Histogram::RELATIVE_ERROR * e2e + 1e-9;
    assert!(
        (sum - e2e).abs() <= tol,
        "component sum {sum} µs vs e2e {e2e} µs (tol {tol})"
    );
}
