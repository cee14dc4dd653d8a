//! Host-cost benchmark of the coregap simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` with tracing off and
//! reports the end-to-end host metrics (`wall_s`, `cpu_s`, `setup_s`,
//! `peak_rss_mb`); a run's time is the sum over its slices (and its
//! set-up time the sum over its set-ups) of each one's fastest
//! observation, scaled to a reference host speed by a fixed gauge (see
//! `host::HostSpeed`). The unscaled times and the gauge reading are
//! reported too, as `unscaled.*` and `gauge_ms`. `--trace 1` runs the same
//! workload and seed traced and plain, and reports the per-layer
//! metrics. Either way every run's simulated outputs and fingerprint
//! must equal the first run's, and the last stdout line is one JSON
//! object (see `README.md`).

mod host;
mod instrument;
mod probes;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use host::{json_num, json_str, percentile, HostSpeed, Span};
use instrument::{Instrument, EVENT_KINDS, PLANE_COUNTERS, REBINDS};
use workloads::{Inputs, Outcome};

/// Measured repeats, at least: of an untraced run (plus one warm-up),
/// and of the plain baseline in a traced one.
const MIN_REPEATS: usize = 3;
/// Traced runs in a traced invocation.
const TRACED_RUNS: usize = 3;
/// Set-up-only runs after each measured repeat.
const SETUPS_PER_REPEAT: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One run: its outcome (or panic message) and what its instrument
/// recorded.
struct Timed {
    outcome: Result<Outcome, String>,
    ins: Instrument,
}

/// Runs `f`, turning a panic into its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())
    })
}

fn timed_run(inputs: &Inputs, traced: bool) -> Timed {
    let mut ins = Instrument::new(traced);
    let outcome = guarded(|| inputs.run(&mut ins));
    Timed { outcome, ins }
}

/// Checks runs of one workload and seed against each other: each must
/// complete, satisfy its output invariants, and reproduce the first
/// sound run's outputs and fingerprint exactly. Set-up-only runs and
/// probes count as attempts too, failed when they panic.
#[derive(Default)]
struct Checker {
    reference: Option<Outcome>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, label: &str, timed: &Timed) {
        let problem = match &timed.outcome {
            Err(msg) => Some(format!("{label}: panicked: {msg}")),
            Ok(o) if !o.violations.is_empty() => Some(format!("{label}: {}", o.violations.join("; "))),
            Ok(_) if !timed.ins.errors.is_empty() => {
                Some(format!("{label}: {}", timed.ins.errors.join("; ")))
            }
            Ok(o) => match &self.reference {
                None => {
                    self.reference = Some(o.clone());
                    None
                }
                Some(r) if r.outputs == o.outputs && r.fingerprint == o.fingerprint => None,
                Some(r) => Some(format!(
                    "{label}: outputs {:?} / fingerprint {:016x} differ from the first run's {:?} / {:016x}",
                    o.outputs, o.fingerprint, r.outputs, r.fingerprint
                )),
            },
        };
        self.record(problem);
    }

    /// Runs `f` as one attempt; `None` when it panicked.
    fn guard<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> Option<T> {
        let result = guarded(f);
        self.record(
            result
                .as_ref()
                .err()
                .map(|msg| format!("{label}: panicked: {msg}")),
        );
        result.ok()
    }

    fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(p);
            }
        }
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The fastest observation of each slice (or set-up) across the repeats
/// of one workload and seed. Interference from other tenants of the
/// host only ever adds time, and every repeat replays the same slices
/// and set-ups, so these are their own costs.
#[derive(Default)]
struct Fastest(Vec<Span>);

impl Fastest {
    /// Adds one repeat's spans, in run order.
    fn add(&mut self, spans: &[Span]) {
        for (i, s) in spans.iter().enumerate() {
            match self.0.get_mut(i) {
                Some(f) => {
                    f.wall_s = f.wall_s.min(s.wall_s);
                    f.cpu_s = f.cpu_s.min(s.cpu_s);
                }
                None => self.0.push(*s),
            }
        }
    }

    /// The run's cost: the sum of the fastest observation of each span.
    fn total(&self) -> Span {
        self.0.iter().fold(Span::default(), |a, s| Span {
            wall_s: a.wall_s + s.wall_s,
            cpu_s: a.cpu_s + s.cpu_s,
        })
    }
}

fn untraced(inputs: &Inputs, seconds: f64, checker: &mut Checker) -> Metrics {
    let start = Instant::now();
    let mut speed = HostSpeed::default();
    speed.sample();
    // Warm-up: checked, not timed.
    let warm = timed_run(inputs, false);
    checker.check("warm-up", &warm);
    let mut setups = Fastest::default();
    let mut slices = Fastest::default();
    let mut repeats = 0;
    while repeats < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        repeats += 1;
        let t = timed_run(inputs, false);
        checker.check(&format!("repeat {repeats}"), &t);
        slices.add(&t.ins.slices);
        setups.add(&t.ins.setup);
        // Extra set-ups and gauge readings between repeats, so both are
        // sampled across the whole run.
        for i in 0..SETUPS_PER_REPEAT {
            let mut ins = Instrument::new(false);
            let label = format!("set-up {} after repeat {repeats}", i + 1);
            if checker
                .guard(&label, || inputs.setup_only(&mut ins))
                .is_some()
            {
                setups.add(&ins.setup);
            }
            speed.sample();
        }
    }
    let run = slices.total();
    let setup = setups.total().wall_s;
    eprintln!(
        "perfbench: {repeats} repeats of {} slices and {} set-ups; measured wall {:.6} s, \
         cpu {:.6} s, set-up {:.3e} s; fastest gauge {:.4} ms",
        slices.0.len(),
        setups.0.len(),
        run.wall_s,
        run.cpu_s,
        setup,
        speed.gauge_s * 1e3
    );
    vec![
        ("wall_s".into(), speed.scale(run.wall_s), "s"),
        ("cpu_s".into(), speed.scale(run.cpu_s), "s"),
        ("setup_s".into(), speed.scale(setup), "s"),
        ("peak_rss_mb".into(), host::peak_rss_mb(), "MB"),
        ("unscaled.wall_s".into(), run.wall_s, "s"),
        ("unscaled.cpu_s".into(), run.cpu_s, "s"),
        ("unscaled.setup_s".into(), setup, "s"),
        ("gauge_ms".into(), speed.gauge_s * 1e3, "ms"),
    ]
}

fn traced(inputs: &Inputs, seconds: f64, checker: &mut Checker) -> Metrics {
    let start = Instant::now();
    let mut traced_slices = Fastest::default();
    // Counts repeat exactly (the checker compares fingerprints), so the
    // first traced run's tally and counters stand for all of them.
    let mut first = None;
    for i in 0..TRACED_RUNS {
        let t = timed_run(inputs, true);
        checker.check(&format!("traced run {}", i + 1), &t);
        traced_slices.add(&t.ins.slices);
        first.get_or_insert(t);
    }
    let tr = first.expect("at least one traced run");
    // A probe that panics reports no metrics and fails the invocation.
    let probe_us = [
        checker.guard("control-plane probe", probes::cp_timings),
        checker.guard("fleet-epoch probe", probes::fleet_epoch_timings),
    ];
    let ops = checker.guard("op probes", probes::op_timings);
    // The rest of the time goes to plain runs: the untraced baseline the
    // event counts and the tracing overhead are measured against.
    let mut plain_slices = Fastest::default();
    let mut plain_runs = 0;
    while plain_runs < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        plain_runs += 1;
        let t = timed_run(inputs, false);
        checker.check(&format!("plain run {plain_runs}"), &t);
        plain_slices.add(&t.ins.slices);
    }
    let plain = plain_slices.total();
    let traced = traced_slices.total();
    let slice_us: Vec<f64> = plain_slices.0.iter().map(|s| s.wall_s * 1e6).collect();

    let cpu_s = plain.cpu_s;
    let tally = &tr.ins.tally;
    let mut m: Metrics = Vec::new();
    let count = |m: &mut Metrics, name: String, v: u64| m.push((name, v as f64, "count"));
    count(&mut m, "loop.events".into(), tally.events);
    for (kind, n) in EVENT_KINDS.iter().zip(tally.by_kind) {
        count(&mut m, format!("loop.events.{kind}"), n);
    }
    m.push((
        "loop.events_per_s".into(),
        tally.events as f64 / cpu_s,
        "1/s",
    ));
    m.push((
        "loop.ns_per_event".into(),
        cpu_s * 1e9 / tally.events.max(1) as f64,
        "ns",
    ));
    m.push(("loop.sim_s_per_cpu_s".into(), tr.ins.sim_s / cpu_s, "s/s"));
    m.push((
        "loop.slice_us.p50".into(),
        percentile(&slice_us, 50.0),
        "us",
    ));
    m.push((
        "loop.slice_us.p99".into(),
        percentile(&slice_us, 99.0),
        "us",
    ));
    count(&mut m, "trace.sched".into(), tally.sched);
    count(&mut m, "trace.irq".into(), tally.irq);
    count(&mut m, "trace.rpc".into(), tally.rpc);
    count(&mut m, "trace.timer".into(), tally.timer);
    m.push((
        "trace.overhead_ratio".into(),
        traced.wall_s / plain.wall_s,
        "ratio",
    ));
    for name in PLANE_COUNTERS.iter().chain([&REBINDS]) {
        count(&mut m, (*name).into(), tr.ins.counters[name]);
    }
    for (label, n) in tr.ins.span_counts() {
        count(&mut m, format!("span.{label}.count"), n);
    }
    m.extend(
        probe_us
            .into_iter()
            .flatten()
            .flatten()
            .map(|(name, v)| (name.into(), v, "us")),
    );
    m.extend(
        ops.into_iter()
            .flatten()
            .map(|(name, v)| (name.into(), v, "ns")),
    );
    eprintln!(
        "perfbench: fastest slices sum to {:.3} s plain ({plain_runs} runs), {:.3} s traced",
        plain.wall_s, traced.wall_s
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(inputs) = Inputs::generate(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            workloads::NAMES
        );
        std::process::exit(2);
    };
    // Panics are caught and counted per run; keep their messages short.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    let mut checker = Checker::default();
    let metrics = if args.trace {
        traced(&inputs, args.seconds, &mut checker)
    } else {
        untraced(&inputs, args.seconds, &mut checker)
    };

    let reference = checker.reference.as_ref();
    let outputs = reference
        .map(|r| {
            r.outputs
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .unwrap_or_default();
    let metrics_json = metrics
        .iter()
        .map(|(k, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let failures = checker
        .failures
        .iter()
        .map(|f| json_str(f))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failures\": [{failures}], \"fingerprint\": {}, \"outputs\": {{{outputs}}}, \
         \"metrics\": {{{metrics_json}}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        checker.attempted,
        checker.failed,
        reference
            .map(|r| json_str(&format!("{:016x}", r.fingerprint)))
            .unwrap_or_else(|| "null".into()),
    );
}
