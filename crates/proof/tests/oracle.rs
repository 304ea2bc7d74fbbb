//! The checker against a naive oracle: random Input/Add/Delete/Assume
//! sequences over at most six variables, each checked three ways — by
//! [`check`], by [`check_blob`] on the encoded blob, and by a quadratic
//! fixpoint oracle that states the checker's semantics directly. All three
//! must agree exactly: the same report, or the same rejection.
//!
//! The oracle's semantics, which the checker's watched-literal database
//! must reproduce:
//!
//! * stored clauses are a multiset of normalized clauses of two or more
//!   literals; units go straight onto the assignment and tautologies are
//!   skipped;
//! * the assignment is persistent — deletions never retract what a
//!   deleted clause once propagated;
//! * a conflict is sticky: once the inputs and assumptions are refuted,
//!   nothing more is stored and every later `Add` passes.

use atropos_proof::{check, check_blob, CheckError, CheckReport, Proof, Step};
use proptest::prelude::*;

/// Sorted by variable then sign, deduplicated; `None` for a tautology.
fn normalize(lits: &[i32]) -> Option<Vec<i32>> {
    let mut v = lits.to_vec();
    v.sort_by_key(|&l| (l.unsigned_abs(), l < 0));
    v.dedup();
    if v.windows(2).any(|w| w[0] == -w[1]) {
        None
    } else {
        Some(v)
    }
}

/// Unit propagation of `clauses` from `assigned` (the true literals) to
/// its fixpoint; `None` when some clause goes false.
fn closure(clauses: &[Vec<i32>], mut assigned: Vec<i32>) -> Option<Vec<i32>> {
    loop {
        let mut changed = false;
        for c in clauses {
            if c.iter().any(|l| assigned.contains(l)) {
                continue;
            }
            let open: Vec<i32> = c
                .iter()
                .copied()
                .filter(|l| !assigned.contains(&-l))
                .collect();
            match open[..] {
                [] => return None,
                [unit] => {
                    assigned.push(unit);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return Some(assigned);
        }
    }
}

#[derive(Default)]
struct Oracle {
    clauses: Vec<Vec<i32>>,
    assigned: Vec<i32>,
    conflict: bool,
}

impl Oracle {
    /// Adds `extra` to the assignment and re-closes it over the stored
    /// clauses.
    fn settle(&mut self, extra: Option<i32>) {
        let mut assigned = self.assigned.clone();
        assigned.extend(extra.filter(|l| !assigned.contains(l)));
        match closure(&self.clauses, assigned) {
            Some(a) => self.assigned = a,
            None => self.conflict = true,
        }
    }

    fn add(&mut self, lits: &[i32]) {
        let Some(c) = normalize(lits) else { return };
        if self.conflict {
            return;
        }
        if c.iter().all(|l| self.assigned.contains(&-l)) {
            self.conflict = true; // empty, or false under the assignment
        } else if let [unit] = c[..] {
            self.settle(Some(unit));
        } else {
            self.clauses.push(c);
            self.settle(None);
        }
    }

    fn assume(&mut self, a: i32) {
        if self.conflict {
            return;
        }
        if self.assigned.contains(&-a) {
            self.conflict = true;
        } else {
            self.settle(Some(a));
        }
    }

    fn delete(&mut self, lits: &[i32]) -> bool {
        let Some(c) = normalize(lits).filter(|c| c.len() >= 2) else {
            return false;
        };
        let Some(at) = self.clauses.iter().position(|d| *d == c) else {
            return false;
        };
        self.clauses.remove(at);
        true
    }

    fn rup(&self, lits: &[i32]) -> bool {
        let Some(c) = normalize(lits) else {
            return true;
        };
        if self.conflict || c.iter().any(|l| self.assigned.contains(l)) {
            return true;
        }
        // No literal of `c` is true, so its negations are new or already
        // on the assignment; a repeat is harmless to `closure`.
        let mut scratch = self.assigned.clone();
        scratch.extend(c.iter().map(|l| -l));
        closure(&self.clauses, scratch).is_none()
    }
}

fn oracle(proof: &Proof) -> Result<CheckReport, CheckError> {
    let mut o = Oracle::default();
    let mut report = CheckReport::default();
    let mut empty_added = false;
    for (idx, step) in proof.steps.iter().enumerate() {
        report.steps += 1;
        match step {
            Step::Input(c) => {
                report.inputs += 1;
                o.add(c);
            }
            Step::Add(c) => {
                if !o.rup(c) {
                    return Err(CheckError::NotRup { step: idx });
                }
                report.rup_checks += 1;
                if c.is_empty() {
                    empty_added = true;
                } else {
                    o.add(c);
                }
            }
            Step::Delete(c) => report.deletions += usize::from(o.delete(c)),
            Step::Assume(a) => {
                report.assumptions += 1;
                o.assume(*a);
            }
        }
    }
    if empty_added {
        Ok(report)
    } else {
        Err(CheckError::NoEmptyClause)
    }
}

/// One generated step, over literals of variables 1..=6 (folded onto the
/// case's variable count when the proof is built).
#[derive(Debug, Clone)]
enum Op {
    Input(Vec<i32>),
    /// Adds a random clause, usually not RUP.
    Add(Vec<i32>),
    /// Adds an earlier `Input` or `Add` (the `n`-th, modulo their count)
    /// widened by one literal — RUP while that clause is still implied.
    AddEarlier(usize, i32),
    /// Adds the resolvent of two earlier `Input`s or `Add`s (indices
    /// modulo their count) on their first clashing variable, if any — RUP
    /// while both parents are present.
    Resolve(usize, usize),
    /// Deletes a random clause, usually absent from the database.
    Delete(Vec<i32>),
    /// Deletes, reversed, the clause of an earlier `Input` or `Add`
    /// (the `n`-th, modulo their count) — usually present.
    DeleteEarlier(usize),
    /// Assumes one literal.
    Assume(i32),
}

fn lits(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec((1i32..7, any::<bool>()), len).prop_map(|v| {
        v.into_iter()
            .map(|(x, pos)| if pos { x } else { -x })
            .collect()
    })
}

/// Repeated arms weight the draw toward inputs and re-adds, so many
/// sequences end refuted and accepted.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        lits(1..4).prop_map(Op::Input),
        lits(1..4).prop_map(Op::Input),
        lits(1..4).prop_map(Op::Input),
        lits(1..4).prop_map(Op::Input),
        lits(1..4).prop_map(Op::Input),
        lits(1..4).prop_map(Op::Input),
        lits(0..6).prop_map(Op::Add),
        (0usize..64, lits(1..2)).prop_map(|(n, l)| Op::AddEarlier(n, l[0])),
        (0usize..64, lits(1..2)).prop_map(|(n, l)| Op::AddEarlier(n, l[0])),
        (0usize..64, 0usize..64).prop_map(|(n, m)| Op::Resolve(n, m)),
        (0usize..64, 0usize..64).prop_map(|(n, m)| Op::Resolve(n, m)),
        (0usize..64, 0usize..64).prop_map(|(n, m)| Op::Resolve(n, m)),
        lits(1..4).prop_map(Op::Delete),
        (0usize..64).prop_map(Op::DeleteEarlier),
        (0usize..64).prop_map(Op::DeleteEarlier),
        lits(1..2).prop_map(|l| Op::Assume(l[0])),
    ]
}

/// Folds each literal onto `num_vars` variables and, when `conclude`,
/// appends the empty clause.
fn build(num_vars: i32, ops: &[Op], conclude: bool) -> Proof {
    let fold = |c: &[i32]| -> Vec<i32> {
        c.iter()
            .map(|&l| {
                let v = (l.abs() - 1) % num_vars + 1;
                if l < 0 {
                    -v
                } else {
                    v
                }
            })
            .collect()
    };
    let mut steps = Vec::new();
    let mut stored: Vec<Vec<i32>> = Vec::new();
    for op in ops {
        match op {
            Op::Input(c) => {
                stored.push(fold(c));
                steps.push(Step::Input(fold(c)));
            }
            Op::Add(c) => {
                stored.push(fold(c));
                steps.push(Step::Add(fold(c)));
            }
            Op::AddEarlier(n, l) if !stored.is_empty() => {
                let mut c = stored[n % stored.len()].clone();
                c.push(fold(&[*l])[0]);
                stored.push(c.clone());
                steps.push(Step::Add(c));
            }
            Op::Resolve(n, m) if !stored.is_empty() => {
                let (a, b) = (&stored[n % stored.len()], &stored[m % stored.len()]);
                if let Some(&pivot) = a.iter().find(|&&l| b.contains(&-l)) {
                    let mut c: Vec<i32> = a.iter().copied().filter(|&l| l != pivot).collect();
                    c.extend(b.iter().copied().filter(|&l| l != -pivot));
                    stored.push(c.clone());
                    steps.push(Step::Add(c));
                }
            }
            Op::Delete(c) => steps.push(Step::Delete(fold(c))),
            Op::DeleteEarlier(n) if !stored.is_empty() => {
                let mut c = stored[n % stored.len()].clone();
                c.reverse();
                steps.push(Step::Delete(c));
            }
            Op::AddEarlier(..) | Op::Resolve(..) | Op::DeleteEarlier(_) => {}
            Op::Assume(a) => steps.push(Step::Assume(fold(&[*a])[0])),
        }
    }
    if conclude {
        steps.push(Step::Add(vec![]));
    }
    Proof { steps }
}

/// A variable count, the ops, and (three times in four) a concluding
/// empty clause.
fn cases() -> impl Strategy<Value = Proof> {
    (1i32..7, prop::collection::vec(op(), 0..24), 0u8..4)
        .prop_map(|(n, ops, conclude)| build(n, &ops, conclude > 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20000))]

    #[test]
    fn checker_agrees_with_the_fixpoint_oracle(proof in cases()) {
        let want = oracle(&proof);
        prop_assert_eq!(check(&proof), want.clone(), "check diverges on {:?}", proof);
        prop_assert_eq!(
            check_blob(&proof.encode()),
            want.map_err(|e| e.to_string()),
            "check_blob diverges on {:?}",
            proof
        );
    }
}

/// The generator is not vacuous: among the drawn sequences, many are
/// accepted, many are rejected at a non-RUP step, and many honour a
/// deletion.
#[test]
fn oracle_cases_cover_every_outcome() {
    let mut rng = proptest::rng::TestRng::from_name("oracle_cases_cover_every_outcome");
    let strategy = cases();
    let (mut accepted, mut not_rup, mut deleting) = (0, 0, 0);
    for _ in 0..1000 {
        match oracle(&strategy.generate(&mut rng)) {
            Ok(report) => {
                accepted += 1;
                deleting += usize::from(report.deletions > 0);
            }
            Err(CheckError::NotRup { .. }) => not_rup += 1,
            Err(CheckError::NoEmptyClause) => {}
        }
    }
    assert!(
        accepted >= 150 && not_rup >= 150 && deleting >= 30,
        "{accepted} accepted ({deleting} deleting), {not_rup} not RUP"
    );
}
