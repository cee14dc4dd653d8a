//! Host-side measurement: CPU clock, peak resident memory, order
//! statistics, and a minimal JSON writer.

use std::fmt::Write as _;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system CPU time of the
/// whole process, at nanosecond resolution.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec and the
    // clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Wall and CPU time of one measured span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// A running wall + CPU stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn stop(self) -> Span {
        Span {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu,
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Smallest of the samples (0 when there are none).
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Times `op` over batches of `batch` calls until `budget_s` has passed
/// (at least `min_batches`), returning ns per call of the fastest batch:
/// interference from other tenants of the host only ever adds time.
pub fn ns_per_call(batch: u64, min_batches: usize, budget_s: f64, mut op: impl FnMut()) -> f64 {
    // Warm the caches and any lazily grown buffers first.
    for _ in 0..batch {
        op();
    }
    let start = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < min_batches || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    min(&per_call)
}

/// A JSON number: finite floats in Rust's shortest round-trip form,
/// anything else as `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A reference reading of the gauge: a typical fastest reading on a
/// shared 2-vCPU Intel Xeon host, where it ranged from 1.14 to 1.86 ms
/// across speed regimes. Times scaled by [`HostSpeed`] are seconds at
/// the speed at which the gauge takes this long.
const REFERENCE_GAUGE_S: f64 = 1.6e-3;

/// Fixed work written against `std` alone, so no change to the
/// simulator changes its cost: a binary heap kept 1024 deep, a hash map
/// and a 64 KiB table, driven by a xorshift stream. Returns its host
/// seconds — a reading of how fast the host runs this process right now.
pub fn gauge_s() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let start = Instant::now();
    let mut heap = BinaryHeap::with_capacity(2048);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(8192);
    let mut table = vec![0u64; 1 << 13];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 100_000, i)));
        if heap.len() > 1024 {
            if let Some(Reverse((t, id))) = heap.pop() {
                *map.entry(id & 8191).or_insert(0) += t;
            }
        }
        let j = (x as usize >> 11) & (table.len() - 1);
        table[j] = table[j].wrapping_add(i);
    }
    std::hint::black_box((&heap, &map, &table));
    start.elapsed().as_secs_f64()
}

/// The host's speed over one invocation, from the fastest of repeated
/// [`gauge_s`] readings.
///
/// A shared host switches between speed regimes up to 1.7×
/// apart for seconds to minutes at a time; a regime slows the gauge and
/// the simulator alike. Scaling a measured time by
/// `REFERENCE_GAUGE_S / fastest gauge reading` turns it into seconds at
/// the reference speed, which repeats across regimes where the raw time
/// does not.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    pub gauge_s: f64,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed {
            gauge_s: f64::INFINITY,
        }
    }
}

impl HostSpeed {
    /// Takes one more gauge reading.
    pub fn sample(&mut self) {
        self.gauge_s = self.gauge_s.min(gauge_s());
    }

    /// `seconds` measured on this host, as seconds at the reference speed.
    pub fn scale(&self, seconds: f64) -> f64 {
        seconds * REFERENCE_GAUGE_S / self.gauge_s
    }
}
