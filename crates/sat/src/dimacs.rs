//! DIMACS CNF serialization, for debugging encodings against external
//! solvers, plus the textual DRAT dump of a proof — with the matching
//! [`to_dimacs`] CNF file, [`to_drat`] over a solver's
//! [`Solver::refutation`] can be fed straight to external checkers such
//! as drat-trim.

use std::fmt::Write as _;

use crate::lit::{Lit, Var};
use crate::proof::ProofEvent;
use crate::solver::Solver;

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
            let n = l.var().0 as i64 + 1;
            let _ = write!(out, "{} ", if l.is_positive() { n } else { -n });
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
                lits.push(Lit::new(Var((n.unsigned_abs() - 1) as u32), n > 0));
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

/// Parses DIMACS CNF text into a ready-to-solve [`Solver`].
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_dimacs(text: &str) -> Result<Solver, String> {
    parse_dimacs_with_proofs(text, false)
}

/// [`parse_dimacs`], optionally into a proof-logging solver
/// ([`Solver::with_proofs`]) — the entry point of the `solve_dimacs`
/// example harness's `--proof-out` flag.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_dimacs_with_proofs(text: &str, proofs: bool) -> Result<Solver, String> {
    let mut solver = if proofs {
        Solver::with_proofs()
    } else {
        Solver::new()
    };
    let mut declared_vars: Option<usize> = None;
    let mut clause: Vec<Lit> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p cnf") {
            let mut it = rest.split_whitespace();
            let nv: usize = it
                .next()
                .ok_or("missing var count")?
                .parse()
                .map_err(|e| format!("bad var count: {e}"))?;
            declared_vars = Some(nv);
            for _ in 0..nv {
                solver.new_var();
            }
            continue;
        }
        for tok in line.split_whitespace() {
            let n: i64 = tok.parse().map_err(|e| format!("bad literal `{tok}`: {e}"))?;
            if n == 0 {
                solver.add_clause(clause.drain(..));
            } else {
                let v = (n.unsigned_abs() - 1) as u32;
                if declared_vars.is_none_or(|nv| v as usize >= nv) {
                    return Err(format!("literal {n} out of declared range"));
                }
                clause.push(Lit::new(Var(v), n > 0));
            }
        }
    }
    if !clause.is_empty() {
        solver.add_clause(clause);
    }
    Ok(solver)
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
        let mut s = parse_dimacs(&text).unwrap();
        let m = s.solve().model().unwrap().to_vec();
        assert!(m[0] && m[1]);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "c a comment\n\np cnf 1 1\n1 0\n";
        let mut s = parse_dimacs(text).unwrap();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn detects_unsat_from_text() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let mut s = parse_dimacs(text).unwrap();
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn rejects_out_of_range_literal() {
        assert!(parse_dimacs("p cnf 1 1\n2 0\n").is_err());
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
    }

    #[test]
    fn solver_log_dumps_checkable_drat() {
        // Pigeonhole-ish root UNSAT: the proof ends in the empty clause
        // and every line parses back.
        let mut s = parse_dimacs_with_proofs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", true)
            .unwrap();
        assert_eq!(s.solve(), SolveResult::Unsat);
        let text = to_drat(&s.refutation());
        let parsed = parse_drat(&text).unwrap();
        assert!(!parsed.is_empty());
        assert!(parsed
            .iter()
            .all(|e| !matches!(e, ProofEvent::Input(_))));
    }
}
