//! The proof-certificate audit of the proof subsystem: every benchmark's
//! detection sweep re-run with proof logging on, each banked UNSAT
//! certificate re-checked by the independent `atropos_proof` checker, and
//! the logging overhead measured against an identical proofs-off sweep.
//!
//! Two artifacts per run:
//!
//! 1. **`experiments/proof_stats.csv`** — one row per benchmark (the nine
//!    of Table 1 plus the Relay chain scenario): queries, UNSAT
//!    refutations, certificates banked/checked, payload bytes, and the
//!    proofs-on vs proofs-off wall times. `csv_smoke.rs` pins the 100%
//!    checked floor and the ≤ 1.5x TPC-C overhead ceiling against this
//!    file.
//! 2. **`experiments/reports/<benchmark>.md`** — one markdown anomaly
//!    report per benchmark: each transaction tuple's verdict per level
//!    with its audit trail (✅ `Trace` when a dirty verdict's decoded
//!    witness manifested on the simulated cluster; `Proof Cert` ✅ with
//!    the number of core input clauses when a clean verdict's refutations
//!    all check, `static` when a clean verdict needed no query), plus the
//!    witness schedules themselves.
//!
//! The timed sweep is the certificate harness's scope: pair mode at EC
//! and CC, triple mode at EC. The reports additionally run pairs at SER
//! (see [`REPORT_SWEEP`]). `ATROPOS_THIN=1` is accepted for CI symmetry
//! with the other bins but thins nothing: the TPC-C ceiling needs the
//! full best-of-N over windows of at least [`WINDOW`] to be pinnable
//! against wall-clock noise.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use atropos_bench::reporting::{
    anomaly_report_markdown, proof_stats_header, proof_stats_row, write_report, ProofCert,
    ReportRow,
};
use atropos_bench::{engine_from_args, thin_slice, write_csv, Table};
use atropos_detect::{
    AccessPair, ConsistencyLevel, DetectMode, DetectSession, DetectionEngine, WitnessDecoder,
};
use atropos_sim::{run_schedule, ConcreteSchedule, ScheduleEvent};
use atropos_workloads::{all_benchmarks, chain_scenarios, Benchmark};

/// The timed (and CSV-reported) sweep mirrors the `SWEEP` of
/// `tests/proof_certificates.rs` exactly: pairs at EC and CC, triples at
/// EC. (That harness's wider all-level sweep pins core minimality and is
/// not timed.)
const TIMED_SWEEP: [(ConsistencyLevel, DetectMode); 3] = [
    (ConsistencyLevel::EventualConsistency, DetectMode::Pairs),
    (ConsistencyLevel::CausalConsistency, DetectMode::Pairs),
    (ConsistencyLevel::EventualConsistency, DetectMode::Triples),
];

/// The markdown reports additionally run pairs at SER — the repair target,
/// where clean verdicts rest on real refutations rather than the static
/// prefilter, so the `Proof Cert` column has certified rows to show. Kept
/// out of the timed sweep so the CSV's overhead ratio stays the one
/// measured on the certificate harness's sweep; SER certificates are
/// refutation cores like every other, not copies of a solver's log.
const REPORT_SWEEP: [(ConsistencyLevel, DetectMode); 4] = [
    (ConsistencyLevel::EventualConsistency, DetectMode::Pairs),
    (ConsistencyLevel::CausalConsistency, DetectMode::Pairs),
    (ConsistencyLevel::Serializable, DetectMode::Pairs),
    (ConsistencyLevel::EventualConsistency, DetectMode::Triples),
];

/// The shortest timed window of one measurement: a sweep takes a few
/// milliseconds, so back-to-back sweeps fill the window until one
/// scheduler burst moves their mean by a few percent at most.
const WINDOW: Duration = Duration::from_millis(200);

fn level_name(level: ConsistencyLevel) -> &'static str {
    match level {
        ConsistencyLevel::EventualConsistency => "EC",
        ConsistencyLevel::CausalConsistency => "CC",
        ConsistencyLevel::RepeatableRead => "RR",
        ConsistencyLevel::Serializable => "SER",
    }
}

/// `experiments/reports/` file stem: lowercase, non-alphanumerics to `-`.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// `Generated:` stamp (UTC), from the wall clock via the civil-date
/// algorithm — the toolchain has no date dependency to lean on.
fn utc_stamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (h, m, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
    // Howard Hinnant's civil_from_days, anchored at 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(mo <= 2);
    format!("{y:04}-{mo:02}-{d:02} {h:02}:{m:02}:{s:02} UTC")
}

/// One full sweep over a benchmark through a fresh engine and session;
/// returns the session (with every verdict, audit, and certificate) plus
/// per-(level, mode) verdicts and wall times and the query/UNSAT totals.
struct SweepOutcome {
    session: DetectSession,
    verdicts: Vec<(ConsistencyLevel, DetectMode, Vec<AccessPair>, f64)>,
    queries: u64,
    unsat: u64,
    seconds: f64,
}

fn sweep(
    b: &Benchmark,
    threads: usize,
    proofs: bool,
    passes: &[(ConsistencyLevel, DetectMode)],
) -> SweepOutcome {
    let engine = DetectionEngine::new(threads).with_proofs(proofs);
    let mut session = DetectSession::new();
    let mut verdicts = Vec::new();
    let (mut queries, mut unsat) = (0u64, 0u64);
    let started = Instant::now();
    for &(level, mode) in passes {
        let pass = Instant::now();
        let (pairs, stats) = engine.detect_with_mode(&b.program, level, mode, &mut session);
        queries += stats.queries;
        unsat += stats.queries - stats.sat_queries;
        verdicts.push((level, mode, pairs, pass.elapsed().as_secs_f64()));
    }
    let seconds = started.elapsed().as_secs_f64();
    SweepOutcome {
        session,
        verdicts,
        queries,
        unsat,
        seconds,
    }
}

/// The mean wall time of one timed sweep over back-to-back sweeps that
/// fill at least [`WINDOW`], with the last sweep's outcome.
fn timed_window(b: &Benchmark, threads: usize, proofs: bool) -> (f64, SweepOutcome) {
    let started = Instant::now();
    let (mut seconds, mut sweeps) = (0.0, 0u32);
    loop {
        let outcome = sweep(b, threads, proofs, &TIMED_SWEEP);
        seconds += outcome.seconds;
        sweeps += 1;
        if started.elapsed() >= WINDOW {
            return (seconds / f64::from(sweeps), outcome);
        }
    }
}

/// Renders a decoded witness schedule as fenced-block text: the session
/// layout, then the arbitration order with per-event op detail.
fn render_trace(s: &ConcreteSchedule) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "anomaly: {}  ({} sessions, {} replicas)",
        s.anomaly, s.sessions, s.replicas
    );
    for (i, e) in s.events.iter().enumerate() {
        match *e {
            ScheduleEvent::Invoke(op) => {
                let o = &s.ops[op];
                let _ = writeln!(
                    out,
                    "{i:>3}. invoke    s{} {}.{} ({}) @ r{}",
                    o.session,
                    o.txn,
                    o.label,
                    if o.is_write { "write" } else { "read" },
                    o.replica,
                );
            }
            ScheduleEvent::Replicate { op, to } => {
                let o = &s.ops[op];
                let _ = writeln!(out, "{i:>3}. replicate s{} {}.{} -> r{to}", o.session, o.txn, o.label);
            }
        }
    }
    out
}

/// Builds the benchmark's markdown report from the proofs-on sweep.
fn render_report(b: &Benchmark, outcome: &SweepOutcome, generated: &str) -> String {
    // Pass wall time per (level, mode), for the report's `Pass (s)` cells.
    let mut pass_seconds: BTreeMap<(ConsistencyLevel, usize), f64> = BTreeMap::new();
    for (level, mode, _, secs) in &outcome.verdicts {
        pass_seconds.insert((*level, *mode as usize), *secs);
    }
    let mut rows = Vec::new();
    let mut traces = Vec::new();
    let mut decoder = WitnessDecoder::new(&b.program);
    for audit in outcome.session.audits() {
        let subject = audit.txns.join(" × ");
        let mode = if audit.txns.len() > 2 {
            DetectMode::Triples
        } else {
            DetectMode::Pairs
        };
        let clean = audit.anomalies == 0;
        // A dirty tuple's trace is audited by replaying one of its
        // verdicts' decoded witnesses on the simulated cluster.
        let mut trace = false;
        if !clean {
            let mut audited = audit.txns.clone();
            audited.sort();
            audited.dedup();
            for (level, pass_mode, pairs, _) in &outcome.verdicts {
                if *level != audit.level || *pass_mode != mode {
                    continue;
                }
                for v in pairs {
                    let mut tuple = vec![v.txn1.clone(), v.txn2.clone()];
                    tuple.sort();
                    tuple.dedup();
                    if !tuple.iter().all(|t| audited.contains(t)) {
                        continue;
                    }
                    if let Some(schedule) = decoder.decode(v, audit.level) {
                        if run_schedule(&schedule).manifested {
                            trace = true;
                            traces.push((
                                format!("{subject} @ {} — {}", level_name(audit.level), v.kind),
                                render_trace(&schedule),
                            ));
                        }
                    }
                }
            }
        }
        let proof = if !clean {
            ProofCert::NotApplicable
        } else if audit.proofs.is_empty() {
            ProofCert::Static
        } else {
            let checked: Result<Vec<_>, _> = audit
                .proofs
                .iter()
                .map(|blob| atropos_proof::check_blob(blob))
                .collect();
            match checked {
                Ok(reports) => ProofCert::Checked {
                    core_inputs: reports.iter().map(|r| r.inputs).sum(),
                },
                Err(_) => ProofCert::Rejected,
            }
        };
        rows.push(ReportRow {
            subject,
            level: level_name(audit.level).to_owned(),
            serializable: clean,
            pass_seconds: pass_seconds
                .get(&(audit.level, mode as usize))
                .copied()
                .unwrap_or(0.0),
            trace,
            proof,
        });
    }
    anomaly_report_markdown(b.name, generated, &rows, &traces)
}

fn main() {
    let threads = engine_from_args().threads();
    // Best-of-5 regardless of ATROPOS_THIN: the overhead ratio gates
    // csv_smoke's 1.5x ceiling and fewer repetitions are too noisy to
    // pin against.
    let thin = thin_slice();
    let reps = 5;
    let generated = utc_stamp();

    let benchmarks: Vec<Benchmark> = all_benchmarks()
        .into_iter()
        .chain(chain_scenarios())
        .collect();
    println!(
        "proof_stats: {} benchmarks, best-of-{reps} timing over windows of at least {} ms \
         ({threads} threads{})",
        benchmarks.len(),
        WINDOW.as_millis(),
        if thin { ", thin" } else { "" },
    );

    let mut table = Table::new(proof_stats_header());
    for b in &benchmarks {
        // Best-of-N mean sweep time per logging mode, the modes
        // interleaved; fresh engine and session each sweep so both modes
        // do identical (cold) work. Each measurement fills a window of
        // at least WINDOW: a sweep of a few milliseconds is short enough
        // for one scheduler burst to swing the overhead ratio past its
        // pinned ceiling.
        let mut off_seconds = f64::INFINITY;
        let mut on_seconds = f64::INFINITY;
        let mut last = None;
        for _ in 0..reps {
            let (off, _) = timed_window(b, threads, false);
            off_seconds = off_seconds.min(off);
            let (on, outcome) = timed_window(b, threads, true);
            on_seconds = on_seconds.min(on);
            last = Some(outcome);
        }
        let on = last.expect("at least one repetition");

        let blobs = on.session.proof_blobs();
        let checked = blobs
            .iter()
            .filter(|blob| atropos_proof::check_blob(blob).is_ok())
            .count();
        let proof_bytes: usize = blobs.iter().map(Vec::len).sum();
        println!(
            "{}: {} queries, {} unsat, {}/{} certificates check ({} bytes, {:.2}x overhead)",
            b.name,
            on.queries,
            on.unsat,
            checked,
            blobs.len(),
            proof_bytes,
            on_seconds / off_seconds.max(1e-9),
        );
        table.row(proof_stats_row(
            b.name,
            on.queries,
            on.unsat,
            blobs.len(),
            checked,
            proof_bytes,
            off_seconds,
            on_seconds,
        ));

        let audit = sweep(b, threads, true, &REPORT_SWEEP);
        let report = render_report(b, &audit, &generated);
        match write_report(&slug(b.name), &report) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {} report: {e}", b.name),
        }
    }

    println!("{}", table.render());
    match write_csv("proof_stats", &table) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write proof_stats.csv: {e}"),
    }
}
