//! The solver-throughput microbench of ROADMAP item 5: raw CDCL rates on
//! TPC-C and SmallBank detection, written to
//! `experiments/solver_stats.csv`.
//!
//! Two measurements per benchmark:
//!
//! 1. **Detection rates** — a full pass of the fresh-solver reference
//!    oracle (`detect_anomalies_fresh`), reporting propagations/sec and
//!    conflicts/sec of the SAT encoding's solvers. The engine decides by
//!    closure and does no solver work to measure.
//! 2. **Arena vs. baseline** — the benchmark's *actual* pair and triple
//!    base encodings are exported with `base_cnf` and replayed through
//!    the arena solver and the retained pre-arena baseline
//!    (`atropos_sat::reference`) under identical deterministic assumption
//!    schedules, so the two memory layouts are compared on equal work.
//!    The `Speedup` column is the propagation-throughput ratio
//!    `csv_smoke.rs` pins at ≥ 1.5×.
//!
//! `ATROPOS_THIN=1` shrinks the replay round count (CI smoke); the
//! benchmark set is unchanged so the TPC-C floor stays checkable.

use std::time::Instant;

use atropos_bench::reporting::{solver_stats_header, solver_stats_row};
use atropos_bench::{thin_slice, write_csv, Table};
use atropos_detect::{
    base_cnf, detect_anomalies_fresh, summarize_program, ConsistencyLevel, InstanceModel,
};
use atropos_sat::Lit;
use atropos_workloads::all_benchmarks;

/// Deterministic 64-bit LCG (Knuth's MMIX constants) — the assumption
/// schedule must be identical for both solver implementations.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// The assumption schedule for one (CNF, round) cell: up to sixteen
/// distinct-variable literals, pseudo-random but fully determined by the
/// cell coordinates.
fn assumption_schedule(cnf_idx: usize, round: usize, num_vars: usize) -> Vec<(usize, bool)> {
    let mut state = 0x9e3779b97f4a7c15u64 ^ ((cnf_idx as u64) << 32) ^ round as u64;
    let mut picked: Vec<(usize, bool)> = Vec::new();
    while picked.len() < 16.min(num_vars) {
        let v = (lcg(&mut state) % num_vars.max(1) as u64) as usize;
        if picked.iter().all(|&(w, _)| w != v) {
            picked.push((v, lcg(&mut state) & 1 == 0));
        }
    }
    picked
}

/// Replays every CNF for `rounds` rounds of assumption-driven solves on
/// one solver implementation; returns (propagations, seconds, sat count).
/// Loading the clauses is untimed — the measurement is propagation and
/// search, not construction.
macro_rules! replay {
    ($solver:ty, $cnfs:expr, $rounds:expr) => {{
        let mut solvers = Vec::new();
        for cnf in $cnfs.iter() {
            let mut s = <$solver>::new();
            let num_vars = cnf
                .iter()
                .flat_map(|c| c.iter())
                .map(|l| l.var().index() + 1)
                .max()
                .unwrap_or(0);
            let vars: Vec<_> = (0..num_vars).map(|_| s.new_var()).collect();
            for clause in cnf {
                s.add_clause(clause.iter().copied());
            }
            solvers.push((s, vars));
        }
        let started = Instant::now();
        let mut sat = 0u64;
        for round in 0..$rounds {
            for (ci, (s, vars)) in solvers.iter_mut().enumerate() {
                let assumptions: Vec<Lit> = assumption_schedule(ci, round, vars.len())
                    .into_iter()
                    .map(|(v, pos)| Lit::new(vars[v], pos))
                    .collect();
                if s.solve_with_assumptions(&assumptions).is_sat() {
                    sat += 1;
                }
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        let props: u64 = solvers.iter().map(|(s, _)| s.stats().propagations).sum();
        (props, seconds, sat)
    }};
}

/// Exports the benchmark's real detection CNFs: every pair encoding, plus
/// every triple encoding in full mode.
fn detection_cnfs(program: &atropos_dsl::Program, triples: bool) -> Vec<Vec<Vec<Lit>>> {
    let sums = summarize_program(program);
    let mut cnfs = Vec::new();
    for i in 0..sums.len() {
        for j in i..sums.len() {
            cnfs.push(base_cnf(&InstanceModel::new(&sums[i], &sums[j])));
        }
    }
    if triples {
        for i in 0..sums.len() {
            for j in i..sums.len() {
                for k in j..sums.len() {
                    let model = InstanceModel::new_multi(&[&sums[i], &sums[j], &sums[k]]);
                    cnfs.push(base_cnf(&model));
                }
            }
        }
    }
    cnfs
}

fn main() {
    let thin = thin_slice();
    let level = ConsistencyLevel::EventualConsistency;
    let rounds: usize = if thin { 40 } else { 400 };

    let benchmarks: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| ["TPC-C", "SmallBank"].contains(&b.name))
        .collect();
    println!(
        "solver_stats: {} benchmarks, {} replay rounds{}",
        benchmarks.len(),
        rounds,
        if thin { " (thin)" } else { "" },
    );

    let mut table = Table::new(solver_stats_header());
    for b in &benchmarks {
        // Solver rates of one reference pass.
        let (_, detect) = detect_anomalies_fresh(&b.program, level);

        // Identical CNF streams, identical assumption schedules, two
        // memory layouts. Triple encodings stay in thin mode: they are
        // the large-CNF half of the comparison, and dropping them would
        // change what the Speedup column measures.
        let cnfs = detection_cnfs(&b.program, true);
        // Best-of-three per implementation: fresh solvers each repetition
        // do identical work, so the minimum wall time is the least-noise
        // throughput estimate on a shared machine.
        let (mut arena_props, mut arena_secs, mut arena_sat) = (0u64, f64::INFINITY, 0u64);
        let (mut base_props, mut base_secs, mut base_sat) = (0u64, f64::INFINITY, 0u64);
        for _ in 0..3 {
            let (p, s, n) = replay!(atropos_sat::solver::Solver, cnfs, rounds);
            (arena_props, arena_secs, arena_sat) = (p, arena_secs.min(s), n);
            let (p, s, n) = replay!(atropos_sat::reference::Solver, cnfs, rounds);
            (base_props, base_secs, base_sat) = (p, base_secs.min(s), n);
        }
        assert_eq!(
            arena_sat, base_sat,
            "{}: arena and baseline disagree on the replayed verdicts",
            b.name
        );
        let arena_rate = arena_props as f64 / arena_secs.max(1e-9);
        let base_rate = base_props as f64 / base_secs.max(1e-9);
        println!(
            "{}: {} CNFs, arena {:.2e} props/s vs baseline {:.2e} props/s ({:.2}x)",
            b.name,
            cnfs.len(),
            arena_rate,
            base_rate,
            arena_rate / base_rate.max(1e-9),
        );
        table.row(solver_stats_row(b.name, &detect, arena_rate, base_rate));
    }

    println!("{}", table.render());
    match write_csv("solver_stats", &table) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write solver_stats.csv: {e}"),
    }
}
