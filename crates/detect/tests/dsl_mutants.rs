//! Byte mutants of the ten `examples/corpus` programs go through the whole
//! front end — `parse`, `check_program`, then `summarize_program` and
//! `txn_fingerprint` — and must come out as a value or a typed error, never
//! a panic. Text from outside the process reaches the pipeline through
//! exactly this path.
//!
//! The mutants are fixed: a xorshift generator with a fixed seed replaces,
//! deletes or inserts 1–3 bytes of one corpus file, each inserted or
//! replacing byte drawn from that same file, so mutants stay ASCII and
//! close to the DSL. Floors on how many mutants parse and type-check keep
//! the generator from silently degrading into noise the lexer rejects.
//!
//! The type-checked mutants double as a detection differential: programs
//! the ten hand-written ones only resemble, on which the engine (conflict
//! slices, retained solvers, carried-over models) must return the fresh
//! oracle's verdicts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use atropos_detect::{
    detect_anomalies_fresh, summarize_program, txn_fingerprint, ConsistencyLevel, DetectMode,
    DetectSession, DetectionEngine,
};
use atropos_dsl::{check_program, parse, Program};

const MUTANTS: usize = 4_000;

/// xorshift64: a fixed-seed stream, so every run tries the same mutants.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "dsl"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("corpus file"))
        })
        .collect()
}

/// One mutant of `src`: 1–3 edits, each replacing, deleting or inserting
/// one byte, with new bytes drawn from `src` itself.
fn mutate(src: &[u8], rng: &mut XorShift) -> Vec<u8> {
    let mut out = src.to_vec();
    for _ in 0..1 + rng.below(3) {
        let byte = src[rng.below(src.len())];
        match rng.below(3) {
            0 if !out.is_empty() => {
                let at = rng.below(out.len());
                out[at] = byte;
            }
            1 if !out.is_empty() => {
                let at = rng.below(out.len());
                out.remove(at);
            }
            _ => {
                let at = rng.below(out.len() + 1);
                out.insert(at, byte);
            }
        }
    }
    out
}

/// The fixed mutants, in generation order: each one's corpus file and
/// text.
fn mutants() -> Vec<(String, String)> {
    let files = corpus();
    assert_eq!(files.len(), 10, "the ten corpus programs");
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    (0..MUTANTS)
        .map(|i| {
            let (name, src) = &files[i % files.len()];
            let text = String::from_utf8(mutate(src, &mut rng)).expect("ASCII in, ASCII out");
            (name.clone(), text)
        })
        .collect()
}

#[test]
fn dsl_byte_mutants_never_panic() {
    let (mut parsed, mut checked) = (0usize, 0usize);
    let mut panics = Vec::new();
    for (i, (name, text)) in mutants().into_iter().enumerate() {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let Ok(program) = parse(&text) else {
                return (false, false);
            };
            if check_program(&program).is_err() {
                return (true, false);
            }
            for txn in summarize_program(&program) {
                txn_fingerprint(&txn);
            }
            (true, true)
        }));
        match run {
            Ok((p, c)) => {
                parsed += usize::from(p);
                checked += usize::from(c);
            }
            Err(_) => panics.push(format!("mutant {i} of {name}:\n{text}")),
        }
    }
    assert!(
        panics.is_empty(),
        "{} mutants panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
    assert!(
        parsed >= 1_000 && checked >= 300,
        "the generator degraded: {parsed} of {MUTANTS} mutants parsed, {checked} type-checked"
    );
}

/// Every type-checked mutant goes through the engine and through the fresh
/// oracle ([`detect_anomalies_fresh`]) at all four levels, and the verdicts
/// must be equal. One session serves a program's four passes, so later
/// levels reuse retained pair solvers and the models they carry over. In
/// release the test runs all of them (401 programs); a debug build runs
/// every eighth (the 1st, 9th, 17th, … in generation order, 51
/// programs), so an unoptimized `cargo test` stays quick.
#[test]
fn engine_matches_the_fresh_oracle_on_checked_mutants() {
    let stride = if cfg!(debug_assertions) { 8 } else { 1 };
    let programs: Vec<(String, Program)> = mutants()
        .into_iter()
        .filter_map(|(name, text)| {
            let program = parse(&text).ok()?;
            check_program(&program).ok()?;
            Some((name, program))
        })
        .step_by(stride)
        .collect();
    assert!(
        programs.len() * stride >= 300,
        "{} checked mutants",
        programs.len()
    );
    let engine = DetectionEngine::serial();
    let mut mismatches = Vec::new();
    for (i, (name, program)) in programs.iter().enumerate() {
        let mut session = DetectSession::new();
        for level in ConsistencyLevel::ALL {
            let (got, _) = engine.detect_with_mode(program, level, DetectMode::Pairs, &mut session);
            if got != detect_anomalies_fresh(program, level).0 {
                mismatches.push(format!("checked mutant {} of {name} @ {level}", i * stride));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} mismatches:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
