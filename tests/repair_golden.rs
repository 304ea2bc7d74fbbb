//! A committed golden of the repair loop's observable output on the ten
//! `examples/corpus` programs, so a change to a refactoring rule, to the
//! walks over the syntax tree they share, or to post-processing cannot slip
//! past unnoticed. The repair differential suites compare two runs of the
//! current code with each other (cached with scratch, one thread with
//! many), so a change that moves both sides at once passes them; only a
//! table fixed across commits catches it.
//!
//! One line per program, detection mode (pairs, triples) and row of
//! [`RepairConfig::ablations`] holds the counts of initial and remaining
//! anomalies, applied steps and value correspondences; the post-processing
//! edits (dead selects removed, pairs merged, tables dropped); FNV-1a
//! digests of the printed repaired program and of the steps' `Debug`
//! rendering; and the four witness-replay counters. Each repair runs
//! through [`repair_with_engine`] on a fresh session, and none of these
//! figures depends on the engine's thread count.
//!
//! A rule, oracle or post-processing change may legitimately move this
//! table. When it does, replace `tests/golden/repair.txt` with the table
//! the failing assertion prints, and say in CHANGES.md which lines moved
//! and why.

use atropos::detect::{DetectMode, DetectSession, DetectionEngine};
use atropos::dsl::{parse, print_program};
use atropos::repair::{repair_with_engine, RepairConfig};
use atropos_proof::proof_hash;

const GOLDEN: &str = include_str!("golden/repair.txt");

/// The current table, one line per corpus program (sorted by file name),
/// detection mode and ablation row.
fn table() -> String {
    let dir = format!("{}/examples/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| {
            e.expect("corpus entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|f| f.ends_with(".dsl"))
        .collect();
    files.sort();
    let engine = DetectionEngine::from_env();
    let mut out = String::new();
    for file in &files {
        let src = std::fs::read_to_string(format!("{dir}/{file}")).expect("corpus file");
        let program = parse(&src).expect("corpus program parses");
        for mode in [DetectMode::Pairs, DetectMode::Triples] {
            for (name, config) in RepairConfig::ablations() {
                let config = RepairConfig { mode, ..config };
                let mut session = DetectSession::new();
                let r = repair_with_engine(&program, &config, &engine, &mut session);
                let s = &r.stats;
                out += &format!(
                    "{file} {mode} {name}: initial={} remaining={} steps={} vcs={} \
                     post={}/{}/{} program={:016x} log={:016x} \
                     replay={}/{}/{}/{}\n",
                    r.initial.len(),
                    r.remaining.len(),
                    r.steps.len(),
                    r.vcs.len(),
                    r.post.removed_selects.len(),
                    r.post.merged_pairs.len(),
                    r.post.dropped_tables.len(),
                    proof_hash(print_program(&r.repaired).as_bytes()),
                    proof_hash(format!("{:?}", r.steps).as_bytes()),
                    s.replay_manifested,
                    s.replay_failed,
                    s.replay_suppressed,
                    s.replay_surviving,
                );
            }
        }
    }
    out
}

#[test]
fn repair_output_matches_golden() {
    let got = table();
    assert!(
        got == GOLDEN,
        "the repair loop's output moved from tests/golden/repair.txt; current table:\n{got}"
    );
}
