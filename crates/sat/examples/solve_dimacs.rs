//! Solver test harness: solve a DIMACS CNF file, optionally dumping a
//! textual DRAT proof for external cross-checking (e.g. drat-trim).
//!
//! ```text
//! cargo run -p atropos_sat --example solve_dimacs -- problem.cnf \
//!     --proof-out problem.drat
//! ```
//!
//! Prints `SATISFIABLE` or `UNSATISFIABLE`. With `--proof-out`, the
//! solver runs with proof logging on and, on UNSAT, writes the lemmas its
//! refutation reaches in DRAT text format, over the file's own variable
//! numbers and closed with the empty clause, so
//! `drat-trim problem.cnf problem.drat` verifies it. A SAT answer writes
//! an empty proof.

use std::process::ExitCode;

use atropos_sat::dimacs::parse_dimacs_with_proofs;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut cnf_path: Option<String> = None;
    let mut proof_out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--proof-out" => match args.next() {
                Some(p) => proof_out = Some(p),
                None => {
                    eprintln!("--proof-out needs a path");
                    return ExitCode::from(2);
                }
            },
            _ if cnf_path.is_none() => cnf_path = Some(arg),
            _ => {
                eprintln!("unexpected argument `{arg}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(cnf_path) = cnf_path else {
        eprintln!("usage: solve_dimacs <file.cnf> [--proof-out <file.drat>]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&cnf_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read {cnf_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cnf = match parse_dimacs_with_proofs(&text, proof_out.is_some()) {
        Ok(cnf) => cnf,
        Err(e) => {
            eprintln!("could not parse {cnf_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let sat = cnf.solver.solve().is_sat();
    println!("{}", if sat { "SATISFIABLE" } else { "UNSATISFIABLE" });
    if let Some(path) = proof_out {
        let mut drat = cnf.to_drat(&cnf.solver.refutation());
        if !sat {
            drat.push_str("0\n");
        }
        if let Err(e) = std::fs::write(&path, drat) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    // Conventional SAT-solver exit codes: 10 = SAT, 20 = UNSAT.
    ExitCode::from(if sat { 10 } else { 20 })
}
