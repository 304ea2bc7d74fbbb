//! DIMACS CNF serialization, for debugging encodings against external
//! solvers, plus the textual DRAT dump of a proof — with the matching
//! [`to_dimacs`] CNF file, [`to_drat`] over a solver's
//! [`Solver::refutation`] can be fed straight to external checkers such
//! as drat-trim.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::lit::{Lit, Var};
use crate::proof::ProofEvent;
use crate::solver::Solver;

/// Variables a [`Lit`] can encode: [`Lit::new`] shifts the variable left
/// by one bit in a `u32`.
const MAX_VARS: u64 = 1 << 31;

/// Renders a clause list in DIMACS CNF format.
pub fn to_dimacs(num_vars: usize, clauses: &[Vec<Lit>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p cnf {} {}", num_vars, clauses.len());
    for c in clauses {
        for &l in c {
            let n = l.var().0 as i64 + 1;
            let _ = write!(out, "{} ", if l.is_positive() { n } else { -n });
        }
        out.push_str("0\n");
    }
    out
}

/// Renders proof events in textual DRAT format: one line per deduced
/// clause (`lits... 0`) or deletion (`d lits... 0`). [`ProofEvent::Input`]
/// records are skipped — in the DRAT convention the problem CNF travels in
/// its own DIMACS file ([`to_dimacs`]), the proof file holds only the
/// derivation. A root-level UNSAT proof ends with the empty clause (`0`).
///
/// Assumption-scoped queries have no portable DRAT rendering; to
/// cross-check one externally, append the failed-assumption core to the
/// CNF file as unit clauses first.
pub fn to_drat(events: &[ProofEvent]) -> String {
    drat(events, |v| u64::from(v.0) + 1)
}

/// [`to_drat`] with each solver variable written as `name` numbers it.
fn drat(events: &[ProofEvent], name: impl Fn(Var) -> u64) -> String {
    let mut out = String::new();
    for e in events {
        let lits = match e {
            ProofEvent::Input(_) => continue,
            ProofEvent::Add(l) => l,
            ProofEvent::Delete(l) => {
                out.push_str("d ");
                l
            }
        };
        for &l in lits {
            let sign = if l.is_positive() { "" } else { "-" };
            let _ = write!(out, "{sign}{} ", name(l.var()));
        }
        out.push_str("0\n");
    }
    out
}

/// Parses textual DRAT back into [`ProofEvent::Add`]/[`ProofEvent::Delete`]
/// events — the inverse of [`to_drat`], pinning the format round-trip.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_drat(text: &str) -> Result<Vec<ProofEvent>, String> {
    let mut events = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (delete, rest) = match line.strip_prefix("d ") {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut lits: Vec<Lit> = Vec::new();
        let mut closed = false;
        for tok in rest.split_whitespace() {
            if closed {
                return Err(format!("literals after terminating 0 in `{line}`"));
            }
            let n: i64 = tok.parse().map_err(|e| format!("bad literal `{tok}`: {e}"))?;
            if n == 0 {
                closed = true;
            } else {
                let v = n.unsigned_abs() - 1;
                if v >= MAX_VARS {
                    return Err(format!("literal {n} is beyond {MAX_VARS} variables"));
                }
                lits.push(Lit::new(Var(v as u32), n > 0));
            }
        }
        if !closed {
            return Err(format!("unterminated DRAT line `{line}`"));
        }
        events.push(if delete {
            ProofEvent::Delete(lits)
        } else {
            ProofEvent::Add(lits)
        });
    }
    Ok(events)
}

/// A DIMACS CNF file parsed into a ready-to-solve [`Solver`]
/// ([`parse_dimacs`]). The solver numbers the file's variables densely,
/// in order of first appearance, so it has one variable per distinct
/// variable the clauses name and memory stays bounded by the input;
/// `names` maps its variables back to the file's. A model is indexed by
/// solver variable: the file's variable `names[v]` has value `model[v]`.
#[derive(Debug)]
pub struct Dimacs {
    /// The solver holding the file's clauses.
    pub solver: Solver,
    /// `names[v]`: the file's (1-based) number of solver variable `v`.
    pub names: Vec<u32>,
}

impl Dimacs {
    /// [`to_drat`] naming the file's variables, so the proof checks
    /// against the file it was parsed from (e.g. with drat-trim).
    pub fn to_drat(&self, events: &[ProofEvent]) -> String {
        drat(events, |v| u64::from(self.names[v.0 as usize]))
    }
}

/// Parses DIMACS CNF text into a ready-to-solve [`Solver`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_dimacs(text: &str) -> Result<Dimacs, String> {
    parse_dimacs_with_proofs(text, false)
}

/// [`parse_dimacs`], optionally into a proof-logging solver
/// ([`Solver::with_proofs`]) — the entry point of the `solve_dimacs`
/// example harness's `--proof-out` flag.
///
/// The header's count sizes nothing: it bounds the variables a literal may
/// name and may not exceed 2^31, and the solver allocates a variable when
/// a clause first names it (see [`Dimacs`]).
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_dimacs_with_proofs(text: &str, proofs: bool) -> Result<Dimacs, String> {
    let mut solver = if proofs {
        Solver::with_proofs()
    } else {
        Solver::new()
    };
    let mut names: Vec<u32> = Vec::new();
    let mut vars: HashMap<u64, Var> = HashMap::new();
    let mut declared_vars: Option<u64> = None;
    let mut clause: Vec<Lit> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p cnf") {
            let mut it = rest.split_whitespace();
            let nv: u64 = it
                .next()
                .ok_or("missing var count")?
                .parse()
                .map_err(|e| format!("bad var count: {e}"))?;
            if nv > MAX_VARS {
                return Err(format!("var count {nv} is beyond {MAX_VARS}"));
            }
            declared_vars = Some(nv);
            continue;
        }
        for tok in line.split_whitespace() {
            let n: i64 = tok.parse().map_err(|e| format!("bad literal `{tok}`: {e}"))?;
            if n == 0 {
                solver.add_clause(clause.drain(..));
            } else {
                let name = n.unsigned_abs();
                if declared_vars.is_none_or(|nv| name > nv) {
                    return Err(format!("literal {n} out of declared range"));
                }
                let var = *vars.entry(name).or_insert_with(|| {
                    names.push(name as u32);
                    solver.new_var()
                });
                clause.push(Lit::new(var, n > 0));
            }
        }
    }
    if !clause.is_empty() {
        solver.add_clause(clause);
    }
    Ok(Dimacs { solver, names })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn round_trip_simple_formula() {
        let clauses = vec![
            vec![Lit::new(Var(0), true), Lit::new(Var(1), false)],
            vec![Lit::new(Var(1), true)],
        ];
        let text = to_dimacs(2, &clauses);
        assert!(text.starts_with("p cnf 2 2"));
        let mut s = parse_dimacs(&text).unwrap().solver;
        let m = s.solve().model().unwrap().to_vec();
        assert!(m[0] && m[1]);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "c a comment\n\np cnf 1 1\n1 0\n";
        let mut s = parse_dimacs(text).unwrap().solver;
        assert!(s.solve().is_sat());
    }

    #[test]
    fn detects_unsat_from_text() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let mut s = parse_dimacs(text).unwrap().solver;
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn rejects_out_of_range_literal() {
        assert!(parse_dimacs("p cnf 1 1\n2 0\n").is_err());
        // Magnitudes that truncate to a declared variable as `u32`.
        assert!(parse_dimacs("p cnf 1 1\n4294967297 0\n").is_err());
        assert!(parse_dimacs("p cnf 1 1\n-4294967297 0\n").is_err());
        // More variables than a literal can encode, rejected before any
        // is allocated.
        assert!(parse_dimacs("p cnf 2147483649 1\n1 0\n").is_err());
    }

    /// The header sizes nothing: the solver allocates one variable per
    /// distinct variable the clauses name, so memory stays bounded by the
    /// input.
    #[test]
    fn memory_is_bounded_by_the_input_not_the_header() {
        let cnf = parse_dimacs("p cnf 1000000 1\n1 0\n").unwrap();
        assert_eq!(cnf.solver.num_vars(), 1);
        let cnf = parse_dimacs("p cnf 2147483648 1\n2147483648 0\n").unwrap();
        assert_eq!(cnf.solver.num_vars(), 1);
    }

    /// A file naming a few high variables is numbered densely, in order of
    /// first appearance, and its model and proof name the file's
    /// variables through `names`.
    #[test]
    fn sparse_variables_are_numbered_densely_and_named_back() {
        let mut cnf = parse_dimacs("p cnf 1000 1\n1000 0\n").unwrap();
        assert_eq!((cnf.solver.num_vars(), cnf.names.clone()), (1, vec![1000]));
        assert_eq!(cnf.solver.solve().model(), Some(&[true][..]));

        // Internally `p cnf 2 4 / 1 2 / 1 -2 / -1 2 / -1 -2`, whose DRAT
        // is `1 0` then `0`: written back, it names variable 1000.
        let text = "p cnf 1000 4\n1000 1 0\n1000 -1 0\n-1000 1 0\n-1000 -1 0\n";
        let mut cnf = parse_dimacs_with_proofs(text, true).unwrap();
        assert_eq!(cnf.names, vec![1000, 1]);
        assert_eq!(cnf.solver.solve(), SolveResult::Unsat);
        let drat = cnf.to_drat(&cnf.solver.refutation()) + "0\n";
        assert_eq!(drat, "1000 0\n0\n");
    }

    #[test]
    fn drat_round_trips_adds_and_deletes() {
        let events = vec![
            ProofEvent::Add(vec![Lit::new(Var(0), true), Lit::new(Var(2), false)]),
            ProofEvent::Delete(vec![Lit::new(Var(1), false), Lit::new(Var(0), true)]),
            ProofEvent::Add(vec![]),
        ];
        let text = to_drat(&events);
        assert_eq!(text, "1 -3 0\nd -2 1 0\n0\n");
        assert_eq!(parse_drat(&text).unwrap(), events);
    }

    #[test]
    fn drat_skips_input_events() {
        let events = vec![
            ProofEvent::Input(vec![Lit::new(Var(0), true)]),
            ProofEvent::Add(vec![Lit::new(Var(0), false)]),
        ];
        assert_eq!(to_drat(&events), "-1 0\n");
    }

    #[test]
    fn drat_rejects_malformed_lines() {
        assert!(parse_drat("1 2").is_err(), "unterminated");
        assert!(parse_drat("1 0 2 0").is_err(), "trailing literals");
        assert!(parse_drat("x 0").is_err(), "non-numeric");
        // Variables a literal cannot encode, which `Lit::new` would alias
        // onto another variable.
        assert!(parse_drat("2147483649 0\n").is_err(), "variable 2^31");
        assert!(parse_drat("-4294967297 0\n").is_err(), "variable 2^32");
        assert_eq!(
            parse_drat("-2147483648 0\n").unwrap(),
            vec![ProofEvent::Add(vec![Lit::new(Var((1 << 31) - 1), false)])],
            "the largest variable a literal can encode"
        );
    }

    #[test]
    fn solver_log_dumps_checkable_drat() {
        // Pigeonhole-ish root UNSAT: the proof ends in the empty clause
        // and every line parses back.
        let mut s = parse_dimacs_with_proofs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", true)
            .unwrap()
            .solver;
        assert_eq!(s.solve(), SolveResult::Unsat);
        let text = to_drat(&s.refutation());
        let parsed = parse_drat(&text).unwrap();
        assert!(!parsed.is_empty());
        assert!(parsed
            .iter()
            .all(|e| !matches!(e, ProofEvent::Input(_))));
    }
}
