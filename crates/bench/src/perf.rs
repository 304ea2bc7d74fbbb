//! Shared driver for the performance figures (Figs. 12–15): sweeps client
//! counts over a cluster for the four configurations the paper compares.

use atropos_core::{repair_with_engine, RepairConfig};
use atropos_detect::{ConsistencyLevel, DetectSession, DetectionEngine};
use atropos_sim::{run_simulation, ClusterConfig, RunStats, SimConfig, Workload};
use atropos_workloads::{benchmark, derive_workload};

use crate::reporting::Table;

/// The four program/consistency configurations of §7.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfConfig {
    /// Original program, weak (eventually consistent) execution.
    Ec,
    /// Refactored program, weak execution.
    AtEc,
    /// Original program, every transaction serializable.
    Sc,
    /// Refactored program, only still-anomalous transactions serializable.
    AtSc,
}

impl PerfConfig {
    /// All four, in the paper's legend order.
    pub fn all() -> [PerfConfig; 4] {
        [PerfConfig::AtEc, PerfConfig::AtSc, PerfConfig::Ec, PerfConfig::Sc]
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            PerfConfig::Ec => "EC",
            PerfConfig::AtEc => "AT-EC",
            PerfConfig::Sc => "SC",
            PerfConfig::AtSc => "AT-SC",
        }
    }
}

/// One figure: a benchmark swept over clusters × configurations × clients.
pub struct FigureRun {
    /// Result table (one row per cluster/config/clients triple).
    pub table: Table,
}

/// Runs the full sweep for one benchmark against a caller-owned
/// [`DetectionEngine`] — the figure bins construct **one** engine (from
/// `--threads` / `ATROPOS_THREADS`) for their whole sweep and repair
/// through a session, so the repair that derives the AT-EC/AT-SC
/// workloads solves its dirty pairs on the engine's workers.
///
/// # Panics
///
/// Panics if the benchmark name is unknown.
pub fn run_figure_with_engine(
    bench_name: &str,
    client_counts: &[usize],
    duration_ms: f64,
    engine: &DetectionEngine,
) -> FigureRun {
    let bench = benchmark(bench_name).expect("known benchmark");
    let mut session = DetectSession::new();
    let report = repair_with_engine(
        &bench.program,
        &RepairConfig {
            level: ConsistencyLevel::EventualConsistency,
            ..RepairConfig::default()
        },
        engine,
        &mut session,
    );
    let unsafe_txns: Vec<String> = report.unsafe_transactions().into_iter().collect();
    let original = derive_workload(&bench.program, &bench.mix);
    let repaired = derive_workload(&report.repaired, &bench.mix);

    let mut table = Table::new(vec![
        "cluster", "config", "clients", "tps", "avg_ms", "p99_ms",
    ]);
    let clusters = [
        ClusterConfig::virginia(),
        ClusterConfig::us(),
        ClusterConfig::global(),
    ];
    // Sweep clusters in parallel; each worker returns its rows.
    let rows: Vec<Vec<[String; 6]>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clusters
            .iter()
            .map(|cluster| {
                let original = &original;
                let repaired = &repaired;
                let unsafe_txns = &unsafe_txns;
                scope.spawn(move || {
                    let mut rows = Vec::new();
                    for &clients in client_counts {
                        for config in PerfConfig::all() {
                            let workload: Workload = match config {
                                PerfConfig::Ec => original.clone(),
                                PerfConfig::Sc => original.clone().all_serializable(),
                                PerfConfig::AtEc => repaired.clone(),
                                PerfConfig::AtSc => {
                                    repaired.clone().with_serializable(unsafe_txns)
                                }
                            };
                            let mut sim = SimConfig::new(cluster.clone(), clients);
                            sim.duration_ms = duration_ms;
                            let stats: RunStats = run_simulation(&workload, &sim);
                            rows.push([
                                cluster.name.clone(),
                                config.label().to_owned(),
                                format!("{clients}"),
                                format!("{:.0}", stats.throughput_tps),
                                format!("{:.1}", stats.avg_latency_ms),
                                format!("{:.1}", stats.p99_latency_ms),
                            ]);
                        }
                    }
                    rows
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sweep worker")).collect()
    });
    for cluster_rows in rows {
        for r in cluster_rows {
            table.row(r.to_vec());
        }
    }
    FigureRun { table }
}

/// Prints a compact summary of the headline comparison (US cluster, max
/// clients): AT-EC vs EC overhead and AT-SC vs SC improvement.
pub fn print_headline(fig: &FigureRun, clients: usize) {
    let find = |config: &str| -> Option<(f64, f64)> {
        fig.table
            .rows_ref()
            .iter()
            .find(|r| r[0] == "US" && r[1] == config && r[2] == format!("{clients}"))
            .map(|r| (r[3].parse().unwrap_or(0.0), r[4].parse().unwrap_or(0.0)))
    };
    if let (Some(ec), Some(atec), Some(sc), Some(atsc)) =
        (find("EC"), find("AT-EC"), find("SC"), find("AT-SC"))
    {
        println!(
            "US cluster @ {clients} clients: AT-EC/EC throughput {:.2}x, \
             AT-SC/SC throughput {:.2}x, AT-SC/SC latency {:.2}x",
            atec.0 / ec.0.max(1.0),
            atsc.0 / sc.0.max(1.0),
            atsc.1 / sc.1.max(1e-9),
        );
    }
}
