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
/// then the `ATROPOS_THREADS` environment variable, then the machine's
/// available parallelism (see [`atropos_detect::DetectionEngine::from_env`]).
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

/// The cross-process verdict store the operator opted into via the
/// `ATROPOS_CACHE_FILE` environment variable: a `verdict_cache.v2` store
/// *directory* (conventionally `experiments/verdict_cache.v2`, created on
/// the first save), or `None` when unset/empty.
pub fn cache_file_from_env() -> Option<std::path::PathBuf> {
    std::env::var_os("ATROPOS_CACHE_FILE")
        .filter(|v| !v.is_empty())
        .map(Into::into)
}

/// A [`atropos_detect::DetectSession`] warm-started from the
/// `ATROPOS_CACHE_FILE` store directory when the variable is set and the
/// store loads, or a fresh session otherwise — the cross-process reuse
/// half of the session persistence satellite. A missing store silently
/// degrades to a cold session; a malformed one (or a regular file at the
/// path) is reported and degrades likewise (a benchmark run must not die
/// on a stale cache).
pub fn session_from_env() -> atropos_detect::DetectSession {
    let Some(path) = cache_file_from_env() else {
        return atropos_detect::DetectSession::new();
    };
    match atropos_detect::DetectSession::load_from(&path) {
        Ok(session) => {
            println!(
                "warm-started verdict session from {} ({} pair + {} triple entries)",
                path.display(),
                session.len(),
                session.triple_len(),
            );
            session
        }
        Err(e) => {
            if path.exists() {
                eprintln!("ignoring verdict cache {}: {e}", path.display());
            }
            atropos_detect::DetectSession::new()
        }
    }
}

/// Union-merges `session`'s verdicts into the `ATROPOS_CACHE_FILE` store,
/// if configured — the save half of [`session_from_env`]. Errors are
/// reported and swallowed (persistence is an optimization, never a failure
/// mode).
pub fn persist_session_from_env(session: &atropos_detect::DetectSession) {
    let Some(path) = cache_file_from_env() else {
        return;
    };
    match session.save_to(&path) {
        Ok(entries) => println!("persisted {entries} verdict entries to {}", path.display()),
        Err(e) => eprintln!("could not persist verdict cache {}: {e}", path.display()),
    }
}
