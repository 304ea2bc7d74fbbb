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
//! The type-checked mutants double as two detection differentials over
//! programs the ten hand-written ones only resemble: the engine (conflict
//! slices, closure decisions) must return the fresh oracle's verdicts, and
//! the closure must answer, witness and certify every query exactly as the
//! SAT reference encoding decides it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use atropos_detect::closure::Closure;
use atropos_detect::encode::VisRequirement;
use atropos_detect::{
    candidate_queries, detect_anomalies_fresh, detect_differential, pattern_satisfiable,
    summarize_program, txn_fingerprint, ConsistencyLevel, DetectMode, DetectSession,
    DetectionEngine, InstanceModel, TxnSummary,
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

/// Every `stride`-th type-checked mutant, in generation order: all 401
/// in release, every eighth (the 1st, 9th, 17th, …, 51 programs) in a
/// debug build, so an unoptimized `cargo test` stays quick.
fn checked_mutants() -> (Vec<(String, Program)>, usize) {
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
    (programs, stride)
}

/// Every type-checked mutant goes through the engine and through the fresh
/// oracle ([`detect_anomalies_fresh`]) at all four levels, and the verdicts
/// must be equal. One session serves a program's four passes.
#[test]
fn engine_matches_the_fresh_oracle_on_checked_mutants() {
    let (programs, stride) = checked_mutants();
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

/// Whether `a` precedes `b` in one instance of `model`.
fn prog_before(model: &InstanceModel, a: usize, b: usize) -> bool {
    let (x, y) = (&model.cmds[a], &model.cmds[b]);
    x.instance == y.instance && x.prog_index < y.prog_index
}

/// One closure ≡ SAT case: the closure's answer must be the reference
/// encoding's; a SAT answer's witness must be a model (a total order
/// containing program order, every visible cross-instance atom arbitrated
/// before its observer, the requirements held, and its full `vis`
/// assignment accepted by the reference); an UNSAT answer's certificate
/// must pass the independent checker. Returns what failed.
fn check_case(
    model: &InstanceModel,
    level: ConsistencyLevel,
    closure: &mut Closure,
    reqs: &[VisRequirement],
) -> Result<(), String> {
    let sat = closure.satisfiable(model, reqs);
    if sat != pattern_satisfiable(model, level, reqs) {
        return Err(format!("closure={sat}, SAT reference={}", !sat));
    }
    if !sat {
        let blob = closure.certificate(model, reqs).ok_or("no certificate")?;
        return atropos_proof::check_blob(&blob)
            .map(|_| ())
            .map_err(|e| format!("certificate rejected: {e}"));
    }
    let w = closure.witness(model, reqs).ok_or("no witness")?;
    let n = model.cmds.len();
    // A permutation of the commands is a strict total order.
    let mut sorted = w.order.clone();
    sorted.sort_unstable();
    if sorted != (0..n).collect::<Vec<_>>() {
        return Err("the order is not a permutation of the commands".into());
    }
    let mut positions = vec![0; n];
    for (p, &c) in w.order.iter().enumerate() {
        positions[c] = p;
    }
    for i in 0..n {
        for j in 0..n {
            if prog_before(model, i, j) && positions[i] > positions[j] {
                return Err(format!("the order misses program order ({i}, {j})"));
            }
        }
    }
    for (a, atom) in model.atoms.iter().enumerate() {
        for c in 0..n {
            let cross = model.cmds[atom.cmd].instance != model.cmds[c].instance;
            if cross && w.vis[a][c] && positions[atom.cmd] > positions[c] {
                return Err(format!("vis({a}, {c}) without its arbitration"));
            }
        }
    }
    if let Some(&(a, c, _)) = reqs.iter().find(|&&(a, c, p)| w.vis[a][c] != p) {
        return Err(format!("witness breaks the requirement on vis({a}, {c})"));
    }
    let full: Vec<VisRequirement> = (0..model.atoms.len())
        .flat_map(|a| (0..n).map(move |c| (a, c)))
        .map(|(a, c)| (a, c, w.vis[a][c]))
        .collect();
    if !pattern_satisfiable(model, level, &full) {
        return Err("the reference refutes the witness's vis".into());
    }
    Ok(())
}

/// Three seeded random requirement vectors over `model`, each of one to
/// four (atom, command, polarity) literals.
fn random_requirements(model: &InstanceModel, seed: u64) -> Vec<Vec<VisRequirement>> {
    let (na, n) = (model.atoms.len(), model.cmds.len());
    if na == 0 || n == 0 {
        return Vec::new();
    }
    let mut rng = XorShift(seed | 1);
    (0..3)
        .map(|_| {
            (0..1 + rng.below(4))
                .map(|_| (rng.below(na), rng.below(n), rng.below(2) == 0))
                .collect()
        })
        .collect()
}

/// The closure ≡ SAT differential over the ten corpus programs and the
/// checked mutants, at all four levels: every ordered pair's queries that
/// detection asks, through [`detect_differential`]; every fourth
/// program's triples of distinct transactions, each template candidate
/// passing [`check_case`]; and three seeded random requirement vectors
/// per pair and triple, each passing [`check_case`].
#[test]
fn closure_matches_the_sat_reference_on_corpus_and_checked_mutants() {
    let corpus: Vec<(String, Program)> = corpus()
        .into_iter()
        .map(|(name, src)| {
            let text = String::from_utf8(src).expect("ASCII corpus");
            (name, parse(&text).expect("corpus programs parse"))
        })
        .collect();
    let (mutants, _) = checked_mutants();
    let mut mismatches = Vec::new();
    let mut cases = 0usize;
    for (p, (name, program)) in corpus.iter().chain(&mutants).enumerate() {
        let report = detect_differential(program, &ConsistencyLevel::ALL);
        mismatches.extend(
            report
                .mismatches
                .iter()
                .map(|m| format!("{p} ({name}): {m}")),
        );
        let sums = summarize_program(program);
        let t = sums.len();
        let mut groups: Vec<Vec<&TxnSummary>> = Vec::new();
        for i in 0..t {
            for j in 0..t {
                groups.push(vec![&sums[i], &sums[j]]);
            }
        }
        if p % 4 == 0 {
            for i in 0..t {
                for j in i + 1..t {
                    for k in j + 1..t {
                        groups.push(vec![&sums[i], &sums[j], &sums[k]]);
                    }
                }
            }
        }
        for (g, members) in groups.iter().enumerate() {
            let model = InstanceModel::new_multi(members);
            let mut queries = if members.len() == 3 {
                candidate_queries(members, &model)
            } else {
                Vec::new()
            };
            queries.extend(random_requirements(&model, (p as u64) << 32 ^ g as u64));
            for level in ConsistencyLevel::ALL {
                let mut closure = Closure::new(&model, level);
                for reqs in &queries {
                    cases += 1;
                    if let Err(e) = check_case(&model, level, &mut closure, reqs) {
                        let names: Vec<&str> = members.iter().map(|m| m.name.as_str()).collect();
                        mismatches.push(format!("{p} ({name}) {names:?} @ {level}: {reqs:?}: {e}"));
                    }
                }
            }
        }
    }
    assert!(cases > 1_000, "{cases} cases");
    assert!(
        mismatches.is_empty(),
        "{} mismatches in {cases} cases:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
