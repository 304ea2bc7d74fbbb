//! Minimal text-table and CSV reporting for the experiment binaries.
//!
//! Every CSV in `experiments/` follows one shape: a header row whose first
//! column is `Benchmark`, then one data row per subject, all rows with the
//! header's arity. [`parse_csv`] round-trips that shape so tests can pin
//! it across the figure bins and the detector-stats table alike.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use atropos_core::RepairReport;
use atropos_detect::DetectStats;

/// An aligned text table with a header row.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity");
        self.rows.push(row);
    }

    /// Read access to the accumulated rows.
    pub fn rows_ref(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(esc).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// The `experiments/` directory of the workspace root: binaries run from
/// the root already, while `cargo test` targets start in the crate
/// directory — so walk ancestors until the workspace `Cargo.lock`.
fn experiments_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("experiments");
        }
        if !dir.pop() {
            return PathBuf::from("experiments");
        }
    }
}

/// Writes a table as `experiments/<name>.csv` (under the workspace root,
/// regardless of the invoking target's working directory), returning the
/// path written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(name: &str, table: &Table) -> std::io::Result<PathBuf> {
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Parses CSV text produced by [`Table::to_csv`] back into rows (honouring
/// quoted cells), so tests can pin the header/row shape of written files.
pub fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut row = Vec::new();
        let mut cell = String::new();
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' => quoted = true,
                ',' if !quoted => row.push(std::mem::take(&mut cell)),
                _ => cell.push(c),
            }
        }
        row.push(cell);
        rows.push(row);
    }
    rows
}

/// Header of the detector-statistics table emitted by `table1`.
pub fn detect_stats_header() -> Vec<String> {
    [
        "Benchmark",
        "Queries",
        "SAT",
        "Engine (s)",
        "Fresh (s)",
        "Speedup",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// One row of the detector-statistics table: the engine run's
/// [`DetectStats`] plus the wall time of the fresh-solver reference run.
pub fn detect_stats_row(name: &str, stats: &DetectStats, fresh_seconds: f64) -> Vec<String> {
    vec![
        name.to_owned(),
        format!("{}", stats.queries),
        format!("{}", stats.sat_queries),
        format!("{:.3}", stats.seconds),
        format!("{:.3}", fresh_seconds),
        format!("{:.1}x", fresh_seconds / stats.seconds.max(1e-9)),
    ]
}

/// Header of the repair-loop statistics table emitted by `table1`
/// (`experiments/repair_stats.csv`): per-benchmark oracle reuse of the
/// near-incremental repair driver — at the engine's thread count, plus
/// extra per-thread-count rows for the headline thread sweep — against the
/// from-scratch reference, and the cross-run hit ratio of a
/// session-shared ablation sweep.
pub fn repair_stats_header() -> Vec<String> {
    [
        "Benchmark",
        "Threads",
        "Mode",
        "Oracle passes",
        "Passes run",
        "Passes reused",
        "Pairs reused",
        "Pairs solved",
        "Hit ratio",
        "Cross-run ratio",
        "Cached (s)",
        "Scratch (s)",
        "Speedup",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// One row of the repair-loop statistics table: the cached run's
/// [`atropos_core::RepairStats`], the engine thread count and detection
/// mode it ran at (`pairs` or `triples` — the [`atropos_core::DetectMode`]
/// rendered lowercase), the cross-run hit ratio of the benchmark's
/// session-shared ablation sweep, and explicit wall times for the cached
/// and from-scratch runs (callers time several repetitions and report the
/// best, so the timings travel separately from the report).
#[allow(clippy::too_many_arguments)]
pub fn repair_stats_row(
    name: &str,
    cached: &RepairReport,
    threads: usize,
    mode: atropos_core::DetectMode,
    cross_run_ratio: f64,
    cached_seconds: f64,
    scratch_seconds: f64,
) -> Vec<String> {
    let s = &cached.stats;
    let detections = s.iterations.len() as u64;
    vec![
        name.to_owned(),
        format!("{threads}"),
        format!("{mode}"),
        format!("{}", detections + s.detections_skipped),
        format!("{detections}"),
        format!("{}", s.detections_skipped),
        format!("{}", s.pairs_reused()),
        format!("{}", s.pairs_solved()),
        format!("{:.2}", s.hit_ratio()),
        format!("{:.2}", cross_run_ratio),
        format!("{:.3}", cached_seconds),
        format!("{:.3}", scratch_seconds),
        format!("{:.1}x", scratch_seconds / cached_seconds.max(1e-9)),
    ]
}

/// Header of the pair-vs-triple detection table emitted by `table1`
/// (`experiments/triple_stats.csv`): per benchmark, the anomaly counts of
/// the two bounds at one level, how many are chain-only extras, the
/// triples analysed, the fraction of triple-mode anomalies the repair
/// loop (pair rules plus the `.T` chain rules) eliminates, and both
/// detection passes' wall times.
pub fn triple_stats_header() -> Vec<String> {
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
    .map(str::to_owned)
    .to_vec()
}

/// One row of the pair-vs-triple detection table. `repaired_ratio` is
/// [`atropos_core::RepairReport::repair_ratio`] of a triple-mode repair
/// run: eliminated anomalies over initial anomalies, 1.0 when detection
/// was already clean.
#[allow(clippy::too_many_arguments)]
pub fn triple_stats_row(
    name: &str,
    level: &str,
    pair_anomalies: usize,
    triple_anomalies: usize,
    triples: u64,
    repaired_ratio: f64,
    pair_seconds: f64,
    triple_seconds: f64,
) -> Vec<String> {
    vec![
        name.to_owned(),
        level.to_owned(),
        format!("{pair_anomalies}"),
        format!("{triple_anomalies}"),
        format!("{}", triple_anomalies.saturating_sub(pair_anomalies)),
        format!("{triples}"),
        format!("{repaired_ratio:.2}"),
        format!("{pair_seconds:.3}"),
        format!("{triple_seconds:.3}"),
    ]
}

/// Header of the solver-throughput table emitted by `solver_stats`
/// (`experiments/solver_stats.csv`): per benchmark, the raw solver rates
/// of the fresh-solver reference detection pass and the arena-vs-baseline
/// replay of the *same* detection CNF under identical assumption
/// schedules.
pub fn solver_stats_header() -> Vec<String> {
    [
        "Benchmark",
        "Queries",
        "Propagations",
        "Props/s",
        "Conflicts/s",
        "Arena props/s",
        "Baseline props/s",
        "Speedup",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// One row of the solver-throughput table. `detect` is the reference
/// detection pass's [`DetectStats`]; the remaining pair the raw
/// propagation throughputs of the arena and baseline solvers on the
/// replayed CNF.
pub fn solver_stats_row(
    name: &str,
    detect: &DetectStats,
    arena_props_per_sec: f64,
    baseline_props_per_sec: f64,
) -> Vec<String> {
    vec![
        name.to_owned(),
        format!("{}", detect.queries),
        format!("{}", detect.propagations),
        format!("{:.0}", detect.propagations as f64 / detect.seconds.max(1e-9)),
        format!("{:.2}", detect.conflicts as f64 / detect.seconds.max(1e-9)),
        format!("{arena_props_per_sec:.0}"),
        format!("{baseline_props_per_sec:.0}"),
        format!(
            "{:.2}x",
            arena_props_per_sec / baseline_props_per_sec.max(1e-9)
        ),
    ]
}

/// Header of the proof-certificate table emitted by `proof_stats`
/// (`experiments/proof_stats.csv`): per benchmark, the detection sweep's
/// query and refutation counts, how many UNSAT verdicts carry
/// certificates and how many of those the independent `atropos_proof`
/// checker accepts (`csv_smoke.rs` pins the two equal — a 100%
/// proofs-checked floor), the total certificate payload, and the
/// wall-time overhead of proof logging against an identical proofs-off
/// sweep (pinned ≤ 1.5x on TPC-C).
pub fn proof_stats_header() -> Vec<String> {
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
    .map(str::to_owned)
    .to_vec()
}

/// One row of the proof-certificate table. `queries`/`unsat` come from
/// the proofs-on sweep's [`DetectStats`]; `certificates` is the number of
/// proof blobs the session banked, `checked` how many the checker
/// accepted, `proof_bytes` their total encoded size; the two wall times
/// are the best-of-N sweeps with logging off and on.
#[allow(clippy::too_many_arguments)]
pub fn proof_stats_row(
    name: &str,
    queries: u64,
    unsat: u64,
    certificates: usize,
    checked: usize,
    proof_bytes: usize,
    off_seconds: f64,
    on_seconds: f64,
) -> Vec<String> {
    vec![
        name.to_owned(),
        format!("{queries}"),
        format!("{unsat}"),
        format!("{certificates}"),
        format!("{checked}"),
        format!("{proof_bytes}"),
        format!("{off_seconds:.3}"),
        format!("{on_seconds:.3}"),
        format!("{:.2}x", on_seconds / off_seconds.max(1e-9)),
    ]
}

/// One row of a per-benchmark anomaly report (`experiments/reports/`):
/// one transaction tuple's verdict at one consistency level, plus the
/// audit trail that backs it — a replayed witness trace for dirty
/// verdicts, checker-accepted certificates for clean ones.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// The transaction tuple, e.g. `audit × deposit`.
    pub subject: String,
    /// Consistency level the verdict holds at (`EC`, `CC`, …).
    pub level: String,
    /// `true` = clean (every violation template refuted).
    pub serializable: bool,
    /// Wall time of the detection pass that produced the verdict.
    pub pass_seconds: f64,
    /// Dirty verdicts only: the decoded witness schedule manifested its
    /// anomaly on the simulated cluster.
    pub trace: bool,
    /// What backs the verdict in the `Proof Cert` column.
    pub proof: ProofCert,
}

/// The `Proof Cert` cell of a report row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofCert {
    /// A dirty verdict: a certificate does not apply (`N/A`).
    NotApplicable,
    /// A clean verdict no query reached: no candidate pattern, so nothing
    /// was refuted and no certificate exists (`static`).
    Static,
    /// A clean verdict whose certificates all check; carries the number
    /// of input clauses their cores name in total (`✅ n`).
    Checked {
        /// Core inputs across the tuple's certificates.
        core_inputs: usize,
    },
    /// A clean verdict with a certificate the checker rejects (`❌`).
    Rejected,
}

impl std::fmt::Display for ProofCert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofCert::NotApplicable => write!(f, "N/A"),
            ProofCert::Static => write!(f, "static"),
            ProofCert::Checked { core_inputs } => write!(f, "✅ {core_inputs}"),
            ProofCert::Rejected => write!(f, "❌"),
        }
    }
}

/// Renders one benchmark's anomaly report as markdown: a verdict table in
/// the style of the serializability-report exemplar (`Trace` ✅ for
/// replayed dirty verdicts, `N/A` where it does not apply; `Proof Cert`
/// per [`ProofCert`]), followed by one fenced witness trace per
/// manifested anomaly.
pub fn anomaly_report_markdown(
    bench: &str,
    generated: &str,
    rows: &[ReportRow],
    traces: &[(String, String)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Serializability Analysis Report — {bench}");
    let _ = writeln!(out, "Generated: {generated}");
    let _ = writeln!(out);
    let _ = writeln!(out, "|Transactions|Level|Verdict|Pass (s)|Trace|Proof Cert|");
    let _ = writeln!(out, "|--|--|--|--|--|--|");
    let mark = |b: bool| if b { "✅" } else { "N/A" };
    for r in rows {
        let _ = writeln!(
            out,
            "| `{}` |{}|{}|{:.3}|{}|{}|",
            r.subject,
            r.level,
            if r.serializable {
                "Serializable"
            } else {
                "Not serializable"
            },
            r.pass_seconds,
            mark(r.trace),
            r.proof,
        );
    }
    if !traces.is_empty() {
        let _ = writeln!(out, "\n## Witness traces");
        for (title, body) in traces {
            let _ = writeln!(out, "\n### {title}\n\n```\n{}```", body);
        }
    }
    out
}

/// Writes a rendered report as `experiments/reports/<name>.md` (under the
/// workspace root), returning the path written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_report(name: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = experiments_dir().join("reports");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.md"));
    fs::write(&path, text)?;
    Ok(path)
}

/// Header of the witness-replay table emitted by `table1`
/// (`experiments/replay_stats.csv`): per benchmark, mode, and level, how
/// many initial dirty verdicts decoded into schedules that manifested
/// their anomaly on the simulated cluster, how many failed to
/// (detector/replay divergences, expected zero), how many the repaired
/// program suppressed, and how many survived repair (expected zero).
pub fn replay_stats_header() -> Vec<String> {
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
    .map(str::to_owned)
    .to_vec()
}

/// One row of the witness-replay table, from the replay counters a
/// [`atropos_core::repair_with_engine`] run recorded in its
/// [`atropos_core::RepairStats`].
pub fn replay_stats_row(
    name: &str,
    mode: atropos_core::DetectMode,
    level: &str,
    report: &RepairReport,
) -> Vec<String> {
    let s = &report.stats;
    vec![
        name.to_owned(),
        format!("{mode}"),
        level.to_owned(),
        format!("{}", report.initial.len()),
        format!("{}", s.replay_manifested),
        format!("{}", s.replay_failed),
        format!("{}", s.replay_suppressed),
        format!("{}", s.replay_surviving),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "n"]);
        t.row(vec!["aa", "1"]);
        t.row(vec!["b", "22"]);
        let r = t.render();
        assert!(r.contains("name  n"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x,y"]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    fn proof_cert_column_tells_static_from_certified() {
        let row = |serializable, proof| ReportRow {
            subject: "a × b".to_owned(),
            level: "SER".to_owned(),
            serializable,
            pass_seconds: 0.0,
            trace: false,
            proof,
        };
        let rows = [
            row(false, ProofCert::NotApplicable),
            row(true, ProofCert::Static),
            row(true, ProofCert::Checked { core_inputs: 7 }),
            row(true, ProofCert::Rejected),
        ];
        let md = anomaly_report_markdown("demo", "now", &rows, &[]);
        let cells: Vec<&str> = md
            .lines()
            .filter(|l| l.starts_with("| `"))
            .map(|l| l.trim_end_matches('|').rsplit('|').next().unwrap())
            .collect();
        assert_eq!(cells, ["N/A", "static", "✅ 7", "❌"]);
    }
}
