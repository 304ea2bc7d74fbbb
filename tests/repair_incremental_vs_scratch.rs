//! CLOTHO-style differential harness for the repair loop's oracle surgery:
//! on **all nine workloads × the default configuration × every rule
//! ablation**, the near-incremental verdict-cached driver
//! ([`atropos_core::repair_with_config`]) must produce exactly the same
//! repair as the from-scratch Fig. 10 reference
//! ([`atropos_core::repair_with_config_scratch`]) — same `steps` in the
//! same order, the same `remaining` anomalies, the same value
//! correspondences, the same `repair_ratio()`, and a byte-identical
//! repaired program.
//!
//! This is the repair-level sibling of `tests/incremental_vs_fresh.rs`: the
//! detection-level suite proves the closure's answers equal the fresh
//! solvers' on one program, while this suite proves the pair-verdict
//! cache equals re-running the full oracle across a whole *sequence* of
//! refactored programs.

use atropos::repair::{repair_with_config, repair_with_config_scratch, RepairConfig};
use atropos::workloads::benchmark;
use atropos_dsl::print_program;

fn assert_equivalent(workload: &str) {
    let b = benchmark(workload).expect("registered benchmark");
    let mut some_reuse = false;
    // The canonical rule-ablation sweep ([`RepairConfig::ablations`]),
    // shared with `atropos_core::ablation_sweep` and the benchmark bins.
    for (config_name, config) in RepairConfig::ablations() {
        let cached = repair_with_config(&b.program, &config);
        let scratch = repair_with_config_scratch(&b.program, &config);
        let ctx = format!("{workload} [{config_name}]");
        assert_eq!(cached.initial, scratch.initial, "{ctx}: initial anomalies");
        assert_eq!(cached.steps, scratch.steps, "{ctx}: applied steps");
        assert_eq!(cached.remaining, scratch.remaining, "{ctx}: remaining anomalies");
        assert_eq!(cached.vcs, scratch.vcs, "{ctx}: value correspondences");
        assert_eq!(cached.post, scratch.post, "{ctx}: post-processing report");
        assert!(
            (cached.repair_ratio() - scratch.repair_ratio()).abs() < 1e-12,
            "{ctx}: repair ratio {} vs {}",
            cached.repair_ratio(),
            scratch.repair_ratio()
        );
        assert_eq!(
            print_program(&cached.repaired),
            print_program(&scratch.repaired),
            "{ctx}: repaired programs diverge"
        );
        // The scratch reference must never touch a cache…
        assert_eq!(scratch.stats.pairs_reused(), 0, "{ctx}");
        assert_eq!(scratch.stats.detections_skipped, 0, "{ctx}");
        some_reuse |= cached.stats.pairs_reused() > 0 || cached.stats.detections_skipped > 0;
    }
    // …while across the ablation sweep the cached driver must actually have
    // reused oracle work somewhere, or the harness proves nothing.
    assert!(some_reuse, "{workload}: cached driver never reused a verdict");
}

macro_rules! differential {
    ($($test:ident => $name:literal),+ $(,)?) => {$(
        #[test]
        fn $test() {
            assert_equivalent($name);
        }
    )+};
}

// One test per workload so the suite parallelizes across test threads.
differential! {
    tpcc_matches_scratch_under_all_ablations => "TPC-C",
    seats_matches_scratch_under_all_ablations => "SEATS",
    courseware_matches_scratch_under_all_ablations => "Courseware",
    smallbank_matches_scratch_under_all_ablations => "SmallBank",
    twitter_matches_scratch_under_all_ablations => "Twitter",
    fmke_matches_scratch_under_all_ablations => "FMKe",
    sibench_matches_scratch_under_all_ablations => "SIBench",
    wikipedia_matches_scratch_under_all_ablations => "Wikipedia",
    killrchat_matches_scratch_under_all_ablations => "Killrchat",
}
