//! The two I/O paths of the paper's evaluation, side by side: emulated
//! virtio (exit-intensive) vs SR-IOV passthrough (exit-free data path),
//! each under shared-core and core-gapped execution.
//!
//! Run with: `cargo run --example io_paths --release`

use coregap::system::experiments::io::{run_netpipe, NetpipeConfig};
use coregap::system::Obs;

fn main() {
    let sizes = [64u64, 1500, 65536];
    println!("NetPIPE ping-pong over both device types (median RTT in us):\n");
    println!(
        "{:>9} {:>18} {:>18} {:>18} {:>18}",
        "bytes", "virtio/shared", "virtio/gapped", "sriov/shared", "sriov/gapped"
    );
    let mut results = Vec::new();
    for config in NetpipeConfig::ALL {
        results.push(run_netpipe(config, &sizes, 10, 42, &Obs::disabled()));
    }
    for &s in &sizes {
        print!("{s:>9}");
        for r in &results {
            print!(" {:>18.1}", r[&s].rtt_us);
        }
        println!();
    }
    println!();
    println!("virtio pays two host round trips per message (kick exit + completion");
    println!("injection), which cross-core RPC makes ~2x slower; SR-IOV moves data");
    println!("directly between guest memory and the NIC, leaving only the completion");
    println!("interrupt on the host path (the paper's fig. 8).");
}
