//! Regenerates the **App. A.2** experiment: which of SmallBank's three
//! application-level invariants are violated under eventually consistent
//! execution, before and after repair.
//!
//! 1. every account reflects the complete history of deposits performed on
//!    it (per-account ledger correctness — the paper's invariant 2);
//! 2. money is never created: the bank-wide total never exceeds the initial
//!    funds plus committed deposits (conservation);
//! 3. clients never witness an intermediate state of a funds movement
//!    (atomic visibility of multi-step transfers).
//!
//! The paper's invariant 1 (non-negative balances) is a write-skew property
//! that schema refactoring cannot restore and that last-writer-wins masking
//! hides in the original program, so this experiment leaves it out.

use atropos_bench::{write_csv, Table};
use atropos_core::repair_program;
use atropos_detect::ConsistencyLevel;
use atropos_dsl::{Program, Value};
use atropos_semantics::{Interpreter, Invocation, ViewStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACCOUNTS: i64 = 4;
const INITIAL: i64 = 100; // per component (savings and checking)

/// Seeds initial state: plain tables get rows; `_LOG` tables get one seed
/// entry carrying the initial value (the migration a `Sum` value
/// correspondence prescribes).
fn seed(interp: &mut Interpreter<'_>, program: &Program, uuid_salt: &mut u128) {
    for schema in &program.schemas {
        let pk = schema.primary_key();
        for acct in 0..ACCOUNTS {
            if pk.len() == 1 {
                let fields: Vec<(String, Value)> = schema
                    .value_fields()
                    .iter()
                    .map(|f| {
                        let v = if f.contains("bal") {
                            Value::Int(INITIAL)
                        } else {
                            Value::Str(format!("acct-{acct}"))
                        };
                        ((*f).to_owned(), v)
                    })
                    .collect();
                interp.populate(&schema.name, vec![Value::Int(acct)], fields);
            } else if schema.name.ends_with("_LOG") {
                *uuid_salt += 1;
                let log_field = schema
                    .value_fields()
                    .first()
                    .map(|f| (*f).to_owned())
                    .expect("log schema has its value field");
                interp.populate(
                    &schema.name,
                    vec![Value::Int(acct), Value::Uuid(*uuid_salt)],
                    vec![(log_field, Value::Int(INITIAL))],
                );
            }
        }
    }
}

fn balance_of(interp: &mut Interpreter<'_>, acct: i64) -> i64 {
    let id = interp
        .invoke(&Invocation::new("balance", vec![Value::Int(acct)]))
        .expect("invoke balance");
    interp.run_to_completion(id).expect("balance read");
    interp
        .return_value(id)
        .and_then(Value::as_int)
        .expect("int balance")
}

/// Invariant 1: concurrent deposits to a hot account; afterwards the
/// account must hold exactly its initial funds plus every committed
/// deposit. Lost updates on the read-modify-write balance break this.
fn run_deposit_ledger(program: &Program, runs: u64) -> u64 {
    let mut violations = 0;
    let mut salt = 0x1ED6E2u128;
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(0xDE90 + run);
        let mut interp = Interpreter::new(program, ViewStrategy::Serial, run);
        seed(&mut interp, program, &mut salt);
        interp.set_strategy(ViewStrategy::RandomAtoms { p: 0.5 });
        let mut deposited = 0i64;
        let invs: Vec<Invocation> = (0..6)
            .map(|_| {
                let amt = rng.gen_range(1..40);
                deposited += amt;
                Invocation::new("depositChecking", vec![Value::Int(0), Value::Int(amt)])
            })
            .collect();
        let ids: Vec<_> = invs
            .iter()
            .map(|i| interp.invoke(i).expect("invoke"))
            .collect();
        let mut live = ids.clone();
        while !live.is_empty() {
            let k = rng.gen_range(0..live.len());
            if !interp.step(live[k]).expect("step") {
                live.swap_remove(k);
            }
        }
        interp.set_strategy(ViewStrategy::Serial);
        if balance_of(&mut interp, 0) != 2 * INITIAL + deposited {
            violations += 1;
        }
    }
    violations
}

/// Invariant 2: money is never created. A transfer whose debit is lost but
/// whose credit survives inflates the bank-wide total beyond the committed
/// deposits.
fn run_conservation(program: &Program, runs: u64) -> u64 {
    let mut violations = 0;
    let mut salt = 0x5EEDu128;
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(0xBA2C + run);
        let mut interp = Interpreter::new(program, ViewStrategy::Serial, run);
        seed(&mut interp, program, &mut salt);
        interp.set_strategy(ViewStrategy::RandomAtoms { p: 0.5 });

        let mut invs: Vec<Invocation> = Vec::new();
        let mut deposited: i64 = 0;
        for _ in 0..10 {
            let a = rng.gen_range(0..ACCOUNTS);
            let b = (a + 1 + rng.gen_range(0..ACCOUNTS - 1)) % ACCOUNTS;
            match rng.gen_range(0..3) {
                0 => {
                    let amt = rng.gen_range(1..40);
                    deposited += amt;
                    invs.push(Invocation::new(
                        "depositChecking",
                        vec![Value::Int(a), Value::Int(amt)],
                    ));
                }
                1 => invs.push(Invocation::new(
                    "sendPayment",
                    vec![Value::Int(a), Value::Int(b), Value::Int(rng.gen_range(40..90))],
                )),
                _ => invs.push(Invocation::new(
                    "writeCheck",
                    vec![Value::Int(a), Value::Int(rng.gen_range(20..90))],
                )),
            }
        }
        let ids: Vec<_> = invs
            .iter()
            .map(|i| interp.invoke(i).expect("invoke"))
            .collect();
        let mut live = ids.clone();
        while !live.is_empty() {
            let k = rng.gen_range(0..live.len());
            if !interp.step(live[k]).expect("step") {
                live.swap_remove(k);
            }
        }
        interp.set_strategy(ViewStrategy::Serial);
        let total: i64 = (0..ACCOUNTS).map(|a| balance_of(&mut interp, a)).sum();
        if total > ACCOUNTS * INITIAL * 2 + deposited {
            violations += 1;
        }
    }
    violations
}

/// Invariant 3: amalgamate(0 → 1) concurrently with balance(0) probes from
/// a known state. Any serializable observation of account 0 is either the
/// full pre-state (2·INITIAL) or fully drained (0); anything in between is
/// a witnessed intermediate state.
fn run_snapshot_probes(program: &Program, runs: u64) -> u64 {
    let mut violations = 0;
    let mut salt = 0xABCDu128;
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(0xF00D + run);
        let mut interp = Interpreter::new(program, ViewStrategy::Serial, run);
        seed(&mut interp, program, &mut salt);
        interp.set_strategy(ViewStrategy::RandomAtoms { p: 0.5 });
        let mut invs = vec![Invocation::new(
            "amalgamate",
            vec![Value::Int(0), Value::Int(1)],
        )];
        for _ in 0..3 {
            invs.push(Invocation::new("balance", vec![Value::Int(0)]));
        }
        let ids: Vec<_> = invs
            .iter()
            .map(|i| interp.invoke(i).expect("invoke"))
            .collect();
        let mut live = ids.clone();
        while !live.is_empty() {
            let k = rng.gen_range(0..live.len());
            if !interp.step(live[k]).expect("step") {
                live.swap_remove(k);
            }
        }
        for (k, inv) in invs.iter().enumerate() {
            if inv.txn != "balance" {
                continue;
            }
            let got = interp.return_value(ids[k]).and_then(Value::as_int);
            if let Some(got) = got {
                if got != 2 * INITIAL && got != 0 {
                    violations += 1;
                }
            }
        }
    }
    violations
}

fn main() {
    let original = atropos_workloads::smallbank::program();
    let report = repair_program(&original, ConsistencyLevel::EventualConsistency);
    // `--thin` / ATROPOS_THIN=1: a smoke-sized slice for CI.
    let runs = if atropos_bench::thin_slice() { 20 } else { 400 };

    let mut table = Table::new(vec![
        "program",
        "runs",
        "lost-deposits",
        "money-created",
        "broken-snapshot",
        "violated-invariants",
    ]);
    for (name, program) in [("original", &original), ("repaired", &report.repaired)] {
        let ledger = run_deposit_ledger(program, runs);
        let conservation = run_conservation(program, runs);
        let snapshot = run_snapshot_probes(program, runs);
        let kinds =
            u32::from(ledger > 0) + u32::from(conservation > 0) + u32::from(snapshot > 0);
        table.row(vec![
            name.to_owned(),
            format!("{runs}"),
            format!("{ledger}"),
            format!("{conservation}"),
            format!("{snapshot}"),
            format!("{kinds}/3"),
        ]);
    }
    println!("{}", table.render());
    println!("paper: original violates 3/3 under EC, repaired violates 1/3");
    match write_csv("smallbank_invariants", &table) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
