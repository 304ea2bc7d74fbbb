//! # atropos-bench
//!
//! The experiment harness: one binary per table/figure of the paper.
//! Results are printed as aligned text tables and also written as CSV
//! under `experiments/`.

#![warn(missing_docs)]

pub mod perf;
pub mod reporting;

pub use reporting::{write_csv, Table};

/// True when the experiment binaries should run a thin slice (tiny
/// durations and iteration counts) instead of the full paper-scale sweep —
/// enabled by `--thin` on the command line or `ATROPOS_THIN=1` in the
/// environment. CI uses this to keep the six bins compiling *and running*
/// without paying for full experiments.
pub fn thin_slice() -> bool {
    std::env::args().any(|a| a == "--thin")
        || std::env::var_os("ATROPOS_THIN").is_some_and(|v| v != "0" && !v.is_empty())
}

/// The one [`atropos_detect::DetectionEngine`] an experiment binary
/// constructs for its whole sweep: `--threads N` on the command line wins,
/// then the `ATROPOS_THREADS` environment variable, else one worker (see
/// [`atropos_detect::DetectionEngine::from_env`]).
pub fn engine_from_args() -> atropos_detect::DetectionEngine {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(t) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                return atropos_detect::DetectionEngine::new(t);
            }
        }
    }
    atropos_detect::DetectionEngine::from_env()
}
