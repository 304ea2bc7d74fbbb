//! Regenerates **Table 1**: statically identified anomalous access pairs in
//! the original (EC / CC / RR) and refactored (AT) benchmark programs, plus
//! analysis + repair time — a second table of detector statistics comparing
//! the closure-deciding engine against the fresh-solver reference path
//! ([`atropos_detect::detect_anomalies_fresh`]) — and a third table of
//! repair-loop statistics written to `experiments/repair_stats.csv`: the
//! parallel verdict-cached driver ([`atropos_core::repair_with_engine`])
//! against the from-scratch reference
//! ([`atropos_core::repair_with_config_scratch`]), the cross-run hit ratio
//! of a session-shared rule-ablation sweep per benchmark, and a TPC-C
//! thread sweep (1/2/4/8 workers) for the threads-vs-speedup headline —
//! plus a fourth, pair-vs-triple table (`experiments/triple_stats.csv`):
//! anomaly counts and timing of the bounded three-instance mode
//! ([`atropos_detect::DetectMode::Triples`]) against the pair bound on
//! every benchmark and chain scenario — and a fifth, witness-replay table
//! (`experiments/replay_stats.csv`): for every repair run, how many of the
//! initial dirty verdicts decoded into concrete schedules that manifested
//! on the simulated cluster, and how many survived the repair.
//!
//! One [`atropos_detect::DetectionEngine`] (from `--threads` /
//! `ATROPOS_THREADS`, default: one worker) serves the whole
//! sweep; sessions are scoped per measurement so every timed run starts
//! from a cold cache and timings stay comparable across thread counts.
//! The exception is the pair-vs-triple table, whose one session serves
//! every benchmark's pair and triple passes.

use atropos_bench::reporting::{
    detect_stats_header, detect_stats_row, repair_stats_header, repair_stats_row,
    replay_stats_header, replay_stats_row, triple_stats_header, triple_stats_row,
};
use atropos_bench::{engine_from_args, write_csv, Table};
use atropos_core::{
    ablation_sweep, repair_with_config_scratch, repair_with_engine, DetectMode, RepairConfig,
    RepairReport,
};
use atropos_detect::{
    detect_anomalies_fresh, ConsistencyLevel, DetectSession, DetectStats, DetectionEngine,
};
use atropos_workloads::{all_benchmarks, chain_scenarios, Benchmark};

/// Thread counts of the TPC-C thread sweep (the headline compares 4
/// workers against the serial PR 3-shaped driver at 1).
const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Best-of-`reps` cached repair at one thread count, each rep on a fresh
/// (cold) session so the measurement matches a single-run driver.
fn best_cached(b: &Benchmark, engine: &DetectionEngine, reps: usize) -> (RepairReport, f64) {
    let config = RepairConfig::default();
    let mut best: Option<(RepairReport, f64)> = None;
    for _ in 0..reps {
        let mut session = DetectSession::new();
        let report = repair_with_engine(&b.program, &config, engine, &mut session);
        let seconds = report.seconds;
        if best.as_ref().is_none_or(|(_, s)| seconds < *s) {
            best = Some((report, seconds));
        }
    }
    best.expect("at least one rep")
}

fn main() {
    // `--thin` / ATROPOS_THIN=1: skip the deliberately slow fresh-solver and
    // from-scratch-repair reference runs so CI smoke runs stay cheap; the
    // Table 1 columns themselves are identical either way.
    let thin = atropos_bench::thin_slice();
    let engine = engine_from_args();
    let levels = [
        ConsistencyLevel::EventualConsistency,
        ConsistencyLevel::CausalConsistency,
        ConsistencyLevel::RepeatableRead,
    ];
    let mut table = Table::new(vec![
        "Benchmark", "#Txns", "#Tables", "EC", "AT", "CC", "RR", "Time (s)", "Repaired",
    ]);
    let mut stats_table = Table::new(detect_stats_header());
    let mut repair_table = Table::new(repair_stats_header());
    let mut replay_table = Table::new(replay_stats_header());
    let mut total_ec = 0usize;
    let mut total_fixed = 0usize;
    let mut cc_below_ec = 0usize;
    let (mut engine_total, mut fresh_total) = (0.0f64, 0.0f64);
    let (mut repair_cached_total, mut repair_scratch_total) = (0.0f64, 0.0f64);
    let mut tpcc_repair_speedup = 0.0f64;
    let mut tpcc_scratch_seconds = f64::INFINITY;
    let mut cross_run_ratios: Vec<(String, f64)> = Vec::new();
    // The engine side of the detector-statistics table: serial, like the
    // fresh-solver reference it is timed against.
    let oracle = DetectionEngine::serial();
    for b in all_benchmarks() {
        // Three passes over one session produce the three consistency
        // columns.
        let mut session = DetectSession::new();
        let mut stats = DetectStats::default();
        let [ec, cc, rr] = levels.map(|level| {
            let (verdicts, s) =
                oracle.detect_with_mode(&b.program, level, DetectMode::Pairs, &mut session);
            stats += s;
            verdicts
        });
        cc_below_ec += usize::from(cc.len() < ec.len());
        // Reference path, for the headline speedup (full runs only).
        if !thin {
            let fresh_seconds: f64 = levels
                .iter()
                .map(|&l| detect_anomalies_fresh(&b.program, l).1.seconds)
                .sum();
            engine_total += stats.seconds;
            fresh_total += fresh_seconds;
            stats_table.row(detect_stats_row(b.name, &stats, fresh_seconds));
        }

        let (report, cached_seconds) = best_cached(&b, &engine, if thin { 1 } else { 3 });
        // Witness replay (pair mode): the EC row reuses the repair above;
        // the CC row runs its own repair so the Level column carries both
        // consistency levels the thin-sliced CI harness exercises.
        replay_table.row(replay_stats_row(b.name, DetectMode::Pairs, "EC", &report));
        let cc_config = RepairConfig {
            level: ConsistencyLevel::CausalConsistency,
            ..RepairConfig::default()
        };
        let mut cc_session = DetectSession::new();
        let cc_report = repair_with_engine(&b.program, &cc_config, &engine, &mut cc_session);
        replay_table.row(replay_stats_row(b.name, DetectMode::Pairs, "CC", &cc_report));
        if !thin {
            // From-scratch reference repair, for the repair-loop speedup.
            // Both drivers are timed as the best of three runs so one
            // scheduler hiccup cannot distort the reported ratio.
            let mut scratch_seconds = f64::INFINITY;
            for _ in 0..3 {
                let scratch = repair_with_config_scratch(&b.program, &RepairConfig::default());
                scratch_seconds = scratch_seconds.min(scratch.seconds);
            }
            repair_cached_total += cached_seconds;
            repair_scratch_total += scratch_seconds;
            if b.name == "TPC-C" {
                tpcc_repair_speedup = scratch_seconds / cached_seconds.max(1e-9);
                tpcc_scratch_seconds = scratch_seconds;
            }
            // The cross-run hit ratio of a session-shared ablation sweep:
            // all six configurations repair the same program through one
            // session, so later runs answer earlier runs' shapes warm.
            let mut sweep_session = DetectSession::new();
            ablation_sweep(&b.program, &engine, &mut sweep_session);
            let cross = sweep_session.cache_stats().cross_run_hit_ratio();
            cross_run_ratios.push((b.name.to_owned(), cross));
            repair_table.row(repair_stats_row(
                b.name,
                &report,
                engine.threads(),
                DetectMode::Pairs,
                cross,
                cached_seconds,
                scratch_seconds,
            ));
        }
        total_ec += ec.len();
        total_fixed += ec.len().saturating_sub(report.remaining.len());
        table.row(vec![
            b.name.to_owned(),
            format!("{}", b.program.transactions.len()),
            format!("{}, {}", b.program.schemas.len(), report.repaired.schemas.len()),
            format!("{}", ec.len()),
            format!("{}", report.remaining.len()),
            format!("{}", cc.len()),
            format!("{}", rr.len()),
            format!("{:.2}", report.seconds),
            format!("{:.0}%", report.repair_ratio() * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Average repair rate across all anomalies: {:.0}% (paper reports 74%)",
        100.0 * total_fixed as f64 / total_ec.max(1) as f64
    );
    println!(
        "CC strictly below EC on {cc_below_ec}/9 benchmarks (causal session axioms prune \
         non-monotonic reads)"
    );

    // Pair-vs-triple detection at EC: all nine benchmarks plus the chain
    // scenarios, through one session — so the triple pass's time is the
    // *marginal* cost of the wider bound (its pair phase replays the pair
    // pass's warm verdicts).
    let mut triple_table = Table::new(triple_stats_header());
    let mut triple_session = DetectSession::new();
    let ec = ConsistencyLevel::EventualConsistency;
    let mut chain_extras = 0usize;
    for b in all_benchmarks().into_iter().chain(chain_scenarios()) {
        let t0 = std::time::Instant::now();
        let (pair, _) =
            engine.detect_with_mode(&b.program, ec, DetectMode::Pairs, &mut triple_session);
        let pair_seconds = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let (triple, tstats) =
            engine.detect_with_mode(&b.program, ec, DetectMode::Triples, &mut triple_session);
        let triple_seconds = t0.elapsed().as_secs_f64();
        chain_extras += triple.len().saturating_sub(pair.len());
        // Repaired ratio: how much of the triple bound the repair loop
        // (pair rules plus the `.T` chain rules) eliminates. On its own
        // cold session — `repair_with_engine` sweeps its session to the
        // input program, which would evict the other benchmarks' warm
        // verdicts from the shared triple session.
        let triple_config = RepairConfig {
            mode: DetectMode::Triples,
            ..RepairConfig::default()
        };
        let mut repair_session = DetectSession::new();
        let triple_report =
            repair_with_engine(&b.program, &triple_config, &engine, &mut repair_session);
        replay_table.row(replay_stats_row(
            b.name,
            DetectMode::Triples,
            "EC",
            &triple_report,
        ));
        triple_table.row(triple_stats_row(
            b.name,
            "EC",
            pair.len(),
            triple.len(),
            tstats.triples,
            triple_report.repair_ratio(),
            pair_seconds,
            triple_seconds,
        ));
    }
    println!("\nPair-vs-triple detection (bounded three-instance mode, marginal cost):");
    println!("{}", triple_table.render());
    println!(
        "Triple mode found {chain_extras} chain anomalies beyond the pair bound \
         (observer chains, write-skew cycles, fractured-read chains)"
    );

    println!("\nWitness replay (dirty verdicts decoded to concrete schedules on the sim):");
    println!("{}", replay_table.render());

    let mut outputs = vec![
        ("table1", &table),
        ("triple_stats", &triple_table),
        ("replay_stats", &replay_table),
    ];
    if thin {
        println!("(thin slice: fresh-solver and from-scratch-repair reference runs skipped)");
    } else {
        println!("\nDetector statistics (engine vs fresh-solver-per-query):");
        println!("{}", stats_table.render());
        println!(
            "Detection total: engine {engine_total:.3}s vs fresh {fresh_total:.3}s \
             ({:.1}x speedup)",
            fresh_total / engine_total.max(1e-9)
        );

        // Threads-vs-speedup: TPC-C repaired at 1/2/4/8 workers (best of
        // three cold-session runs each), appended to the same repair-stats
        // table so the CSV carries the whole sweep. The 1-worker row *is*
        // the PR 3 serial cached driver.
        let tpcc = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "TPC-C")
            .expect("TPC-C registered");
        let mut sweep_seconds: Vec<(usize, f64)> = Vec::new();
        for threads in SWEEP_THREADS {
            let sweep_engine = DetectionEngine::new(threads);
            let (report, seconds) = best_cached(&tpcc, &sweep_engine, 3);
            sweep_seconds.push((threads, seconds));
            repair_table.row(repair_stats_row(
                &format!("TPC-C (t={threads})"),
                &report,
                threads,
                DetectMode::Pairs,
                0.0,
                seconds,
                tpcc_scratch_seconds,
            ));
        }

        // One triple-mode repair row, so the Mode column carries both
        // values: the Relay chain scenario driven by DetectMode::Triples
        // (whose observer chain survives repair into the AT-SC set).
        let relay = chain_scenarios()
            .into_iter()
            .find(|b| b.name == "Relay")
            .expect("Relay scenario registered");
        let triple_config = RepairConfig {
            mode: DetectMode::Triples,
            ..RepairConfig::default()
        };
        // Both drivers best-of-3 on cold sessions, like every other row.
        let mut relay_best: Option<(RepairReport, f64)> = None;
        for _ in 0..3 {
            let mut relay_session = DetectSession::new();
            let report =
                repair_with_engine(&relay.program, &triple_config, &engine, &mut relay_session);
            let seconds = report.seconds;
            if relay_best.as_ref().is_none_or(|(_, s)| seconds < *s) {
                relay_best = Some((report, seconds));
            }
        }
        let (relay_report, relay_cached) = relay_best.expect("three reps ran");
        let mut relay_scratch = f64::INFINITY;
        for _ in 0..3 {
            relay_scratch = relay_scratch
                .min(repair_with_config_scratch(&relay.program, &triple_config).seconds);
        }
        repair_table.row(repair_stats_row(
            "Relay (triples)",
            &relay_report,
            engine.threads(),
            DetectMode::Triples,
            0.0,
            relay_cached,
            relay_scratch,
        ));

        println!("\nRepair-loop statistics (verdict-cached vs from-scratch driver):");
        println!("{}", repair_table.render());
        println!(
            "Repair total: cached {repair_cached_total:.3}s vs scratch \
             {repair_scratch_total:.3}s ({:.1}x speedup); TPC-C speedup {:.1}x",
            repair_scratch_total / repair_cached_total.max(1e-9),
            tpcc_repair_speedup
        );
        let serial = sweep_seconds
            .iter()
            .find(|(t, _)| *t == 1)
            .map(|(_, s)| *s)
            .unwrap_or(f64::INFINITY);
        let sweep_line: Vec<String> = sweep_seconds
            .iter()
            .map(|(t, s)| format!("{t} thr {:.2}x ({s:.3}s)", serial / s.max(1e-9)))
            .collect();
        println!(
            "TPC-C thread sweep vs serial cached driver: {}",
            sweep_line.join(", ")
        );
        let mean_cross: f64 = cross_run_ratios.iter().map(|(_, r)| r).sum::<f64>()
            / cross_run_ratios.len().max(1) as f64;
        println!(
            "Ablation-sweep cross-run hit ratio (one shared session per benchmark): \
             mean {mean_cross:.2}, per benchmark {:?}",
            cross_run_ratios
                .iter()
                .map(|(n, r)| format!("{n}: {r:.2}"))
                .collect::<Vec<_>>()
        );
        outputs.push(("detect_stats", &stats_table));
        outputs.push(("repair_stats", &repair_table));
    }
    for (name, t) in outputs {
        match write_csv(name, t) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write CSV: {e}"),
        }
    }
}
