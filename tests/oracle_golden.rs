//! A committed golden of the anomaly oracle's observable output on the ten
//! `examples/corpus` programs, so a change to the templates, the encoder or
//! the solver cannot slip past unnoticed. The differential harnesses
//! compare detection, the fresh reference oracle and witness replay with
//! each other, and all three read one template candidate stream, so only a
//! table fixed across commits can catch a change that moves them together.
//!
//! One line per program and pass (pairs at EC, CC, RR and SC; triples at
//! EC and CC) holds the verdict count, an FNV-1a digest of the verdicts'
//! `Debug` rendering, the `queries`, `sat_queries` and `memo_hits`
//! counters and, at every level with dirty verdicts (all but SC), a digest
//! of every verdict's strict [`WitnessDecoder`] schedule in
//! [`WitnessDecoder::visit_order`]. Each pass runs on a fresh session, and
//! these counters do not depend on the engine's thread count.
//!
//! A template or solver change may legitimately move this table. When it
//! does, replace `tests/golden/oracle.txt` with the table the failing
//! assertion prints, and say in CHANGES.md which lines moved and why.

use atropos::detect::{
    ConsistencyLevel, DetectMode, DetectSession, DetectionEngine, WitnessDecoder,
};
use atropos::dsl::parse;
use atropos_proof::proof_hash;

const GOLDEN: &str = include_str!("golden/oracle.txt");

const PASSES: [(DetectMode, ConsistencyLevel); 6] = [
    (DetectMode::Pairs, ConsistencyLevel::EventualConsistency),
    (DetectMode::Pairs, ConsistencyLevel::CausalConsistency),
    (DetectMode::Pairs, ConsistencyLevel::RepeatableRead),
    (DetectMode::Pairs, ConsistencyLevel::Serializable),
    (DetectMode::Triples, ConsistencyLevel::EventualConsistency),
    (DetectMode::Triples, ConsistencyLevel::CausalConsistency),
];

/// The current table, one line per corpus program (sorted by file name)
/// and pass.
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
        for (mode, level) in PASSES {
            let mut session = DetectSession::new();
            let (verdicts, stats) = engine.detect_with_mode(&program, level, mode, &mut session);
            let digest = proof_hash(format!("{verdicts:?}").as_bytes());
            out += &format!(
                "{file} {mode} {level}: verdicts={} digest={digest:016x} queries={} sat={} memo={}",
                verdicts.len(),
                stats.queries,
                stats.sat_queries,
                stats.memo_hits
            );
            if level != ConsistencyLevel::Serializable {
                let mut decoder = WitnessDecoder::new(&program);
                let mut schedules = String::new();
                for i in decoder.visit_order(&verdicts) {
                    schedules += &format!("{:?}\n", decoder.decode(&verdicts[i], level));
                }
                out += &format!(" schedules={:016x}", proof_hash(schedules.as_bytes()));
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn oracle_output_matches_golden() {
    let got = table();
    assert!(
        got == GOLDEN,
        "the oracle's output moved from tests/golden/oracle.txt; current table:\n{got}"
    );
}
