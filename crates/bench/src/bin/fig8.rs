//! Fig. 8: NetPIPE TCP results (latency and throughput vs message size),
//! emulated virtio vs SR-IOV passthrough, shared-core vs core-gapped.

use cg_bench::{header, Report};
use cg_core::experiments::io::{run_netpipe, NetpipeConfig};

fn main() {
    let mut report = Report::from_args("fig8");
    let quick = report.quick();
    let sizes: &[u64] = if quick {
        &[64, 1500, 65536]
    } else {
        &[
            64,
            256,
            1024,
            1500,
            4096,
            16384,
            65536,
            262144,
            1 << 20,
            4 << 20,
        ]
    };
    let reps = if quick { 5 } else { 20 };
    header("Fig. 8: NetPIPE round-trip latency (us) per message size");
    print!("{:>9}", "bytes");
    let mut configs: Vec<NetpipeConfig> = NetpipeConfig::ALL.to_vec();
    configs.push(NetpipeConfig::DIRECT); // the §5.3 extension
    let results: Vec<_> = configs
        .iter()
        .map(|&c| run_netpipe(c, sizes, reps, 42, report.obs()))
        .collect();
    for c in &configs {
        print!("\t{}", c.label());
    }
    println!();
    for &s in sizes {
        print!("{s:>9}");
        for (c, r) in configs.iter().zip(&results) {
            report.record(&format!("{} {s} B rtt", c.label()), r[&s].rtt_us, "us");
            print!("\t{:.1}", r[&s].rtt_us);
        }
        println!();
    }
    header("Fig. 8: NetPIPE throughput (Mbps) per message size");
    print!("{:>9}", "bytes");
    for c in &configs {
        print!("\t{}", c.label());
    }
    println!();
    for &s in sizes {
        print!("{s:>9}");
        for (c, r) in configs.iter().zip(&results) {
            report.record(
                &format!("{} {s} B throughput", c.label()),
                r[&s].mbps,
                "Mbps",
            );
            print!("\t{:.0}", r[&s].mbps);
        }
        println!();
    }
    println!();
    println!("Paper shapes: virtio core-gapped has up to 2x latency and 30-70% lower");
    println!("throughput; SR-IOV core-gapped stays within 10-20 us of the baseline.");
    report.finish();
}
