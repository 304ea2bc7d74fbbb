//! Smoke tests pinning the one CSV shape every experiment artifact shares:
//! a header row led by `Benchmark`, and data rows matching the header's
//! arity — whether the file comes from the figure bins (`Table::to_csv`)
//! or the detector-stats table `table1` emits.

use atropos_bench::reporting::{
    detect_stats_header, detect_stats_row, parse_csv, proof_stats_header, proof_stats_row,
    repair_stats_header, repair_stats_row, replay_stats_header, replay_stats_row,
    triple_stats_header, triple_stats_row,
};
use atropos_bench::Table;
use atropos_detect::DetectStats;

fn assert_csv_shape(rows: &[Vec<String>], what: &str) {
    assert!(rows.len() >= 2, "{what}: want header + data, got {rows:?}");
    assert_eq!(rows[0][0], "Benchmark", "{what}: header leads with Benchmark");
    let arity = rows[0].len();
    assert!(arity >= 2, "{what}: want at least a name and a value column");
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.len(), arity, "{what}: row {i} arity");
    }
}

#[test]
fn bench_csv_matches_table1_shape() {
    // The header is the contract; the artifact lives under the gitignored
    // experiments/, so validate the generated file when present.
    let mut table1 = Table::new(vec!["Benchmark", "#Txns", "EC", "AT"]);
    table1.row(vec!["TPC-C", "5", "87", "15"]);
    assert_csv_shape(&parse_csv(&table1.to_csv()), "table1-shaped CSV");
    for candidate in ["../../experiments/table1.csv", "experiments/table1.csv"] {
        if let Ok(text) = std::fs::read_to_string(candidate) {
            assert_csv_shape(&parse_csv(&text), candidate);
        }
    }
}

#[test]
fn detect_stats_rows_match_their_header() {
    let mut t = Table::new(detect_stats_header());
    let stats = DetectStats {
        pairs: 25,
        triples: 0,
        queries: 310,
        sat_queries: 120,
        clauses_encoded: 100_000,
        conflicts: 900,
        propagations: 1_000_000,
        decisions: 40_000,
        learnt_seeded: 0,
        seconds: 0.15,
    };
    t.row(detect_stats_row("TPC-C", &stats, 1.1));
    let parsed = parse_csv(&t.to_csv());
    assert_csv_shape(&parsed, "detect-stats CSV");
    assert_eq!(parsed[1][1], "310");
    assert_eq!(parsed[1].last().unwrap(), "7.3x");
}

#[test]
fn repair_stats_rows_match_their_header() {
    // A real (tiny) cached repair provides the row's RepairReport; the
    // scratch wall time is synthetic so the speedup cell shape is pinned.
    let p = atropos_dsl::parse(
        "schema C { id: int key, cnt: int }
         txn bump(k: int) {
             x := select cnt from C where id = k;
             update C set cnt = x.cnt + 1 where id = k;
             return 0;
         }",
    )
    .unwrap();
    let report = atropos_core::repair_program(
        &p,
        atropos_detect::ConsistencyLevel::EventualConsistency,
    );
    let mut t = Table::new(repair_stats_header());
    t.row(repair_stats_row(
        "Counter",
        &report,
        4,
        atropos_core::DetectMode::Pairs,
        0.5,
        report.seconds,
        1.0,
    ));
    t.row(repair_stats_row(
        "Counter (triples)",
        &report,
        4,
        atropos_core::DetectMode::Triples,
        0.0,
        report.seconds,
        1.0,
    ));
    let parsed = parse_csv(&t.to_csv());
    assert_csv_shape(&parsed, "repair-stats CSV");
    // The parallel-engine columns are part of the CSV contract: a thread
    // count right after the benchmark name, the detection mode next to it,
    // and the session-shared ablation sweep's cross-run hit ratio before
    // the timings.
    let header: Vec<&str> = parsed[0].iter().map(String::as_str).collect();
    assert_eq!(header[1], "Threads");
    assert_eq!(header[2], "Mode");
    assert!(header.contains(&"Cross-run ratio"), "{header:?}");
    assert_eq!(parsed[1][0], "Counter");
    assert_eq!(parsed[1][1], "4");
    assert_eq!(parsed[1][2], "pairs");
    assert_eq!(parsed[2][2], "triples");
    let cross_idx = header.iter().position(|h| *h == "Cross-run ratio").unwrap();
    assert_eq!(parsed[1][cross_idx], "0.50");
    // Oracle passes = run + reused, and the speedup cell carries the `x`.
    let passes: u64 = parsed[1][3].parse().unwrap();
    let run: u64 = parsed[1][4].parse().unwrap();
    let reused: u64 = parsed[1][5].parse().unwrap();
    assert_eq!(passes, run + reused);
    assert!(parsed[1].last().unwrap().ends_with('x'));

    // Validate the generated artifact when a full `table1` run produced it.
    for candidate in [
        "../../experiments/repair_stats.csv",
        "experiments/repair_stats.csv",
    ] {
        if let Ok(text) = std::fs::read_to_string(candidate) {
            let rows = parse_csv(&text);
            assert_csv_shape(&rows, candidate);
            assert_eq!(rows[0][1], "Threads", "{candidate}");
            assert_eq!(rows[0][2], "Mode", "{candidate}");
            assert!(
                rows[0].iter().any(|h| h == "Cross-run ratio"),
                "{candidate}: {:?}",
                rows[0]
            );
        }
    }
}

#[test]
fn triple_stats_rows_match_their_header() {
    let mut t = Table::new(triple_stats_header());
    t.row(triple_stats_row("Relay", "EC", 0, 1, 1, 1.0, 0.001, 0.004));
    let parsed = parse_csv(&t.to_csv());
    assert_csv_shape(&parsed, "triple-stats CSV");
    let header: Vec<&str> = parsed[0].iter().map(String::as_str).collect();
    assert_eq!(
        header,
        [
            "Benchmark",
            "Level",
            "Pair anomalies",
            "Triple anomalies",
            "Chain extras",
            "Triples",
            "Repaired ratio",
            "Pair (s)",
            "Triple (s)",
        ]
    );
    // Chain extras = triple − pair, the subsystem's headline number.
    assert_eq!(parsed[1][4], "1");
    // The repaired-ratio column sits between the triple count and the
    // timings, rendered to two decimals: the chain rules' success metric
    // (Relay repairs to clean, so its row reads 1.00).
    assert_eq!(parsed[1][6], "1.00");

    // Validate the generated artifact when a `table1` run produced it.
    for candidate in [
        "../../experiments/triple_stats.csv",
        "experiments/triple_stats.csv",
    ] {
        if let Ok(text) = std::fs::read_to_string(candidate) {
            let rows = parse_csv(&text);
            assert_csv_shape(&rows, candidate);
            assert_eq!(rows[0][4], "Chain extras", "{candidate}");
            assert_eq!(rows[0][6], "Repaired ratio", "{candidate}");
        }
    }
}

#[test]
fn replay_stats_rows_match_their_header() {
    // A real (tiny) repair run provides the replay counters: the lost
    // update's one verdict decodes, manifests on the sim, and is
    // suppressed by the repair — so the row reads 1/1/0/1/0.
    let p = atropos_dsl::parse(
        "schema C { id: int key, cnt: int }
         txn bump(k: int) {
             x := select cnt from C where id = k;
             update C set cnt = x.cnt + 1 where id = k;
             return 0;
         }",
    )
    .unwrap();
    let report = atropos_core::repair_program(
        &p,
        atropos_detect::ConsistencyLevel::EventualConsistency,
    );
    let mut t = Table::new(replay_stats_header());
    t.row(replay_stats_row(
        "Counter",
        atropos_core::DetectMode::Pairs,
        "EC",
        &report,
    ));
    let parsed = parse_csv(&t.to_csv());
    assert_csv_shape(&parsed, "replay-stats CSV");
    let header: Vec<&str> = parsed[0].iter().map(String::as_str).collect();
    assert_eq!(
        header,
        [
            "Benchmark",
            "Mode",
            "Level",
            "Initial",
            "Manifested",
            "Failed",
            "Suppressed",
            "Surviving",
        ]
    );
    assert_eq!(parsed[1], ["Counter", "pairs", "EC", "1", "1", "0", "1", "0"]);

    // Validate the generated artifact when a `table1` run produced it: the
    // Mode column must carry both detection modes and the Level column
    // both consistency levels, and no row may report failed or surviving
    // replays — the harness `tests/replay_validates_verdicts.rs` proves
    // per-verdict what these totals summarize.
    for candidate in [
        "../../experiments/replay_stats.csv",
        "experiments/replay_stats.csv",
    ] {
        if let Ok(text) = std::fs::read_to_string(candidate) {
            let rows = parse_csv(&text);
            assert_csv_shape(&rows, candidate);
            assert_eq!(rows[0][1], "Mode", "{candidate}");
            assert_eq!(rows[0][2], "Level", "{candidate}");
            assert!(rows[1..].iter().any(|r| r[1] == "pairs"), "{candidate}");
            assert!(rows[1..].iter().any(|r| r[1] == "triples"), "{candidate}");
            assert!(rows[1..].iter().any(|r| r[2] == "CC"), "{candidate}");
            for (i, r) in rows[1..].iter().enumerate() {
                assert_eq!(r[5], "0", "{candidate}: row {i} reports failed replays");
                assert_eq!(r[7], "0", "{candidate}: row {i} reports surviving replays");
            }
        }
    }
}

#[test]
fn proof_stats_rows_match_their_header() {
    let mut t = Table::new(proof_stats_header());
    t.row(proof_stats_row("TPC-C", 208, 6, 6, 6, 6_618_364, 0.044, 0.060));
    let parsed = parse_csv(&t.to_csv());
    assert_csv_shape(&parsed, "proof-stats CSV");
    let header: Vec<&str> = parsed[0].iter().map(String::as_str).collect();
    assert_eq!(
        header,
        [
            "Benchmark",
            "Queries",
            "UNSAT",
            "Certificates",
            "Checked",
            "Proof bytes",
            "Off (s)",
            "On (s)",
            "Overhead",
        ]
    );
    assert_eq!(parsed[1][3], "6");
    assert_eq!(parsed[1][4], "6");
    assert_eq!(parsed[1].last().unwrap(), "1.36x");

    // Validate the generated artifact when a `proof_stats` run produced
    // it: the 100% proofs-checked floor (every banked certificate is
    // accepted by the independent checker), at least one benchmark
    // actually banking certificates, and the proof-logging overhead
    // ceiling — proofs-on detection wall time ≤ 1.5x proofs-off on TPC-C.
    for candidate in [
        "../../experiments/proof_stats.csv",
        "experiments/proof_stats.csv",
    ] {
        if let Ok(text) = std::fs::read_to_string(candidate) {
            let rows = parse_csv(&text);
            assert_csv_shape(&rows, candidate);
            assert_eq!(rows[0][3], "Certificates", "{candidate}");
            assert_eq!(rows[0][4], "Checked", "{candidate}");
            let mut total_certs = 0u64;
            for (i, r) in rows[1..].iter().enumerate() {
                let certs: u64 = r[3].parse().unwrap();
                let checked: u64 = r[4].parse().unwrap();
                assert_eq!(
                    checked, certs,
                    "{candidate}: row {i} ({}) is under the 100% checked floor",
                    r[0]
                );
                total_certs += certs;
            }
            assert!(total_certs > 0, "{candidate}: no certificates banked at all");
            let tpcc = rows[1..]
                .iter()
                .find(|r| r[0] == "TPC-C")
                .unwrap_or_else(|| panic!("{candidate}: no TPC-C row"));
            let overhead: f64 = tpcc
                .last()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap_or_else(|e| panic!("{candidate}: bad Overhead cell: {e}"));
            assert!(
                overhead <= 1.5,
                "{candidate}: TPC-C proof-logging overhead {overhead}x is over the 1.5x ceiling"
            );
        }
    }
}
