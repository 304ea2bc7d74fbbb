//! Smoke coverage for the three `examples/`: each test walks the same API
//! path as its example with scaled-down parameters, so a facade change that
//! breaks an example fails `cargo test` — not just `cargo build --examples`
//! in CI.

use atropos::dsl::Value;
use atropos::prelude::*;
use atropos::semantics::{Interpreter, Invocation, ViewStrategy};
use atropos::sim::{run_simulation, ClusterConfig, SimConfig};
use atropos::workloads::derive_workload;

/// `examples/quickstart.rs`: parse → check → detect → repair on the Fig. 1
/// source text.
#[test]
fn quickstart_path() {
    let source = r#"
        schema STUDENT { st_id: int key, st_name: string, st_em_id: int,
                         st_co_id: int, st_reg: bool }
        schema COURSE  { co_id: int key, co_avail: bool, co_st_cnt: int }
        schema EMAIL   { em_id: int key, em_addr: string }

        txn getSt(id: int) {
            x := select * from STUDENT where st_id = id;
            y := select em_addr from EMAIL where em_id = x.st_em_id;
            z := select co_avail from COURSE where co_id = x.st_co_id;
            return count(y.em_addr) + count(z.co_avail);
        }
        txn regSt(id: int, course: int) {
            update STUDENT set st_co_id = course, st_reg = true where st_id = id;
            x := select co_st_cnt from COURSE where co_id = course;
            update COURSE set co_st_cnt = x.co_st_cnt + 1, co_avail = true
                where co_id = course;
            return 0;
        }
    "#;
    let program = parse(source).expect("quickstart source parses");
    check_program(&program).expect("quickstart source checks");

    let anomalies = detect_anomalies(&program, ConsistencyLevel::EventualConsistency);
    assert!(!anomalies.is_empty(), "Fig. 1 has anomalies under EC");

    let report = repair_program(&program, ConsistencyLevel::EventualConsistency);
    assert!(!report.steps.is_empty(), "repair must apply refactorings");
    assert!(report.remaining.len() < report.initial.len());
    assert!(report.repair_ratio() > 0.0);
    // The report's artefacts must all render (the example prints them).
    let _ = print_program(&report.repaired);
    for vc in &report.vcs {
        let _ = format!("{vc}");
    }
}

/// `examples/perf_comparison.rs`: the four-configuration SmallBank sweep,
/// with a much shorter simulated duration.
#[test]
fn perf_comparison_path() {
    let bench = atropos::workloads::benchmark("SmallBank").unwrap();
    let report = repair_program(&bench.program, ConsistencyLevel::EventualConsistency);
    let unsafe_txns: Vec<String> = report.unsafe_transactions().into_iter().collect();
    let original = derive_workload(&bench.program, &bench.mix);
    let repaired = derive_workload(&report.repaired, &bench.mix);

    for (label, workload) in [
        ("EC", original.clone()),
        ("AT-EC", repaired.clone()),
        ("SC", original.all_serializable()),
        ("AT-SC", repaired.with_serializable(&unsafe_txns)),
    ] {
        let mut cfg = SimConfig::new(ClusterConfig::us(), 10);
        cfg.duration_ms = 2_000.0;
        let stats = run_simulation(&workload, &cfg);
        assert!(
            stats.throughput_tps > 0.0,
            "{label}: simulation must commit transactions"
        );
        assert!(
            stats.avg_latency_ms > 0.0 && stats.p99_latency_ms >= stats.avg_latency_ms,
            "{label}: latency stats must be ordered"
        );
    }
}

/// `examples/smallbank_repair.rs`: the concurrent-deposit audit, fewer runs.
#[test]
fn smallbank_repair_path() {
    fn lost_deposit_runs(program: &atropos::dsl::Program, is_repaired: bool, runs: u64) -> u64 {
        let mut lost = 0;
        for run in 0..runs {
            let mut interp = Interpreter::new(program, ViewStrategy::Serial, run);
            for schema in &program.schemas {
                if schema.name == "CHECKING" {
                    interp.populate("CHECKING", vec![Value::Int(0)], [("c_bal", Value::Int(100))]);
                } else if is_repaired
                    && schema.name.starts_with("CHECKING")
                    && schema.name.ends_with("_LOG")
                {
                    let field = schema.value_fields()[0].to_owned();
                    interp.populate(
                        &schema.name,
                        vec![Value::Int(0), Value::Uuid(0xFFFF_0000 + run as u128)],
                        [(field, Value::Int(100))],
                    );
                }
            }
            interp.set_strategy(ViewStrategy::RandomAtoms { p: 0.5 });
            let a = interp
                .invoke(&Invocation::new(
                    "depositChecking",
                    vec![Value::Int(0), Value::Int(10)],
                ))
                .unwrap();
            let b = interp
                .invoke(&Invocation::new(
                    "depositChecking",
                    vec![Value::Int(0), Value::Int(10)],
                ))
                .unwrap();
            interp.step(a).unwrap();
            interp.step(b).unwrap();
            interp.run_to_completion(a).unwrap();
            interp.run_to_completion(b).unwrap();
            interp.set_strategy(ViewStrategy::Serial);
            let id = interp
                .invoke(&Invocation::new("balance", vec![Value::Int(0)]))
                .unwrap();
            interp.run_to_completion(id).unwrap();
            let total = interp.return_value(id).and_then(Value::as_int).unwrap();
            if total != 120 {
                lost += 1;
            }
        }
        lost
    }

    let program = atropos::workloads::smallbank::program();
    let report = repair_program(&program, ConsistencyLevel::EventualConsistency);

    let runs = 40;
    let before = lost_deposit_runs(&program, false, runs);
    let after = lost_deposit_runs(&report.repaired, true, runs);
    assert!(before > 0, "the original must lose deposits under chaos");
    assert_eq!(after, 0, "the functional log must never lose deposits");
}
