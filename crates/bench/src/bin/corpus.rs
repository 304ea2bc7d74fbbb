//! The batch corpus experiment: parse the DSL programs under
//! `examples/corpus/`, duplicate them (a fleet ships near-identical
//! transaction shapes), and measure `analyse_corpus`'s programs/sec
//! against the cold program-at-a-time baseline — the headline throughput
//! number of the corpus pass, written to `experiments/corpus_stats.csv`.
//!
//! The bin also exercises the sharded `verdict_cache.v2` store end to
//! end: the warm session's verdicts are union-merged into
//! `experiments/verdict_store.v2/`, compacted, and reloaded.

use std::path::PathBuf;
use std::time::Instant;

use atropos_bench::reporting::{corpus_stats_header, corpus_stats_row};
use atropos_bench::{engine_from_args, thin_slice, write_csv, Table};
use atropos_detect::{
    analyse_corpus, ConsistencyLevel, CorpusStore, DetectMode, DetectSession, EvictionPolicy,
};
use atropos_dsl::Program;

/// The committed corpus inputs, from the workspace root (bins run there;
/// walk ancestors for `Cargo.lock` like the CSV writer does, so the bin
/// also works from a crate directory).
fn corpus_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("examples/corpus");
        }
        if !dir.pop() {
            return PathBuf::from("examples/corpus");
        }
    }
}

fn main() {
    let engine = engine_from_args();
    let level = ConsistencyLevel::EventualConsistency;
    let thin = thin_slice();

    // Parse the committed corpus once, sorted by file name, each program
    // named by its file stem. Thin mode keeps the shape of the experiment
    // on a smoke-sized slice: the three smallest workloads instead of all
    // ten.
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dsl"))
        .collect();
    files.sort();
    let base: Vec<(String, Program)> = files
        .iter()
        .map(|path| {
            let stem = path.file_stem().unwrap_or_default().to_string_lossy();
            let src =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let program =
                atropos_dsl::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (stem.into_owned(), program)
        })
        .filter(|(n, _)| !thin || ["sibench", "courseware", "relay"].contains(&n.as_str()))
        .collect();
    assert!(!base.is_empty(), "no .dsl programs under {}", dir.display());
    println!(
        "corpus: {} programs from {} ({} threads{})",
        base.len(),
        dir.display(),
        engine.threads(),
        if thin { ", thin" } else { "" },
    );

    let mut table = Table::new(corpus_stats_header());
    let mut warm_session_for_store: Option<DetectSession> = None;
    for dup in [1usize, 4] {
        // A fleet corpus: `dup` near-identical copies of every program.
        let corpus: Vec<(String, Program)> = (0..dup)
            .flat_map(|i| {
                base.iter()
                    .map(move |(n, p)| (format!("{n}#{i}"), p.clone()))
            })
            .collect();

        // Cold baseline: each program detected in isolation — a fresh
        // session per program, same engine.
        let cold_started = Instant::now();
        let cold: Vec<Vec<atropos_detect::AccessPair>> = corpus
            .iter()
            .map(|(_, p)| {
                let mut session = DetectSession::new();
                engine
                    .detect_with_mode(p, level, DetectMode::Pairs, &mut session)
                    .0
            })
            .collect();
        let cold_seconds = cold_started.elapsed().as_secs_f64();

        // Warm corpus pass: one global plan, each unique shape solved once.
        let mut session = DetectSession::new();
        let (verdicts, stats) =
            analyse_corpus(&engine, &corpus, level, DetectMode::Pairs, &mut session);

        // The corpus pass is an optimization, never a different oracle.
        for (isolated, v) in cold.iter().zip(&verdicts) {
            assert_eq!(
                format!("{isolated:?}"),
                format!("{:?}", v.verdicts),
                "{}: corpus verdicts must match isolation",
                v.name
            );
        }

        let found: usize = verdicts.iter().map(|v| v.verdicts.len()).sum();
        table.row(corpus_stats_row(
            &format!("Corpus x{dup}"),
            &stats,
            found,
            cold_seconds,
        ));
        println!(
            "x{dup}: {} programs, {} pair slots -> {} unique solves, cold {:.3}s, warm {:.3}s",
            stats.programs, stats.pair_slots, stats.unique_pairs, cold_seconds, stats.seconds,
        );
        warm_session_for_store = Some(session);
    }

    // Store roundtrip: merge the warm verdicts into the sharded v2 store,
    // compact it, and prove a reload answers the whole corpus warm.
    let store_path = corpus_dir()
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join("experiments/verdict_store.v2"))
        .expect("workspace root");
    if let Some(parent) = store_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let session = warm_session_for_store.expect("at least one run");
    let store = CorpusStore::open(&store_path).expect("open v2 store");
    let added = store.merge_cache(&session).expect("merge into store");
    let compaction = store
        .compact(&EvictionPolicy::default())
        .expect("compact store");
    let reloaded = DetectSession::load_from(&store_path).expect("reload store");
    println!(
        "store {}: +{added} records, compaction kept {} / evicted {}, reload holds {} pair + {} triple entries",
        store_path.display(),
        compaction.kept,
        compaction.evicted,
        reloaded.len(),
        reloaded.triple_len(),
    );
    assert!(!reloaded.is_empty(), "store reload must carry verdicts");

    println!("{}", table.render());
    match write_csv("corpus_stats", &table) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
