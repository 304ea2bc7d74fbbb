//! A miniature of the paper's §7.2 performance experiment: SmallBank on the
//! simulated US cluster under the four configurations (EC, AT-EC, SC,
//! AT-SC).
//!
//! Run with `cargo run --release --example perf_comparison`.

use atropos::prelude::*;
use atropos::sim::{run_simulation, ClusterConfig, SimConfig};
use atropos::workloads::derive_workload;

fn main() {
    let bench = atropos::workloads::benchmark("SmallBank").unwrap();
    let report = repair_program(&bench.program, ConsistencyLevel::EventualConsistency);
    let unsafe_txns: Vec<String> = report.unsafe_transactions().into_iter().collect();
    let original = derive_workload(&bench.program, &bench.mix);
    let repaired = derive_workload(&report.repaired, &bench.mix);

    println!("{:<8} {:>10} {:>12} {:>12}", "config", "tps", "avg ms", "p99 ms");
    let mut measured = Vec::new();
    for (label, workload) in [
        ("EC", original.clone()),
        ("AT-EC", repaired.clone()),
        ("SC", original.all_serializable()),
        ("AT-SC", repaired.with_serializable(&unsafe_txns)),
    ] {
        let mut cfg = SimConfig::new(ClusterConfig::us(), 100);
        cfg.duration_ms = 30_000.0;
        let stats = run_simulation(&workload, &cfg);
        println!(
            "{label:<8} {:>10.0} {:>12.1} {:>12.1}",
            stats.throughput_tps, stats.avg_latency_ms, stats.p99_latency_ms
        );
        measured.push((label, stats));
    }

    let tps = |l: &str| measured.iter().find(|(n, _)| *n == l).unwrap().1.throughput_tps;
    let lat = |l: &str| measured.iter().find(|(n, _)| *n == l).unwrap().1.avg_latency_ms;
    println!(
        "\nAT-SC improves on fully serialized SC by {:.0}% throughput and {:.0}% latency",
        100.0 * (tps("AT-SC") / tps("SC") - 1.0),
        100.0 * (1.0 - lat("AT-SC") / lat("SC")),
    );
    println!("(the paper reports +120% throughput and -45% latency on its AWS clusters)");
}
