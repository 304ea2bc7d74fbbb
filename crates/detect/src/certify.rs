//! Bridging solver proof logs into checkable certificates.
//!
//! The checker crate (`atropos_proof`) deliberately shares no code with the
//! solver stack — its only vocabulary is the DIMACS `i32` literal
//! convention. This module owns the translation: a [`PairSolver`]'s
//! cumulative [`ProofEvent`] log plus the failed assumption core of one
//! UNSAT query become an encoded certificate blob whose acceptance by
//! [`atropos_proof::check_blob`] is independent evidence for the verdict.
//!
//! [`PairSolver`]: crate::encode::PairSolver

use atropos_proof::{ProofWriter, Step};
use atropos_sat::{Lit, ProofEvent};

/// The `Lit` → DIMACS bridge: variable `v` becomes `v + 1`, negated
/// literals become negative numbers.
fn dimacs_lit(l: Lit) -> i32 {
    let v = l.var().0 as i32 + 1;
    if l.is_positive() {
        v
    } else {
        -v
    }
}

/// An incremental certificate producer for one solver's lifetime: the
/// solver's cumulative event log is encoded once as it grows (the shared
/// prefix of every certificate the solver will emit), and each UNSAT
/// answer snapshots it with its own trailer. Without this, a solver
/// answering `q` UNSAT queries re-encodes the whole log `q` times — on
/// TPC-C that alone pushed proof logging past the benchmarked overhead
/// ceiling.
#[derive(Debug, Default, Clone)]
pub(crate) struct Certifier {
    writer: ProofWriter,
    /// Events already encoded into `writer`.
    consumed: usize,
}

impl Certifier {
    /// Assembles the certificate for one UNSAT answer and encodes it: the
    /// cumulative event log, then the trailer — `Add(¬core)` justified by
    /// the solver's final conflict analysis, one `Assume` per failed
    /// assumption, and the empty clause. A root refutation (empty core)
    /// needs only the empty clause.
    pub(crate) fn certificate_blob(&mut self, events: &[ProofEvent], core: &[Lit]) -> Vec<u8> {
        for e in &events[self.consumed..] {
            match e {
                ProofEvent::Input(l) => self
                    .writer
                    .push_input(l.iter().copied().map(dimacs_lit)),
                ProofEvent::Add(l) => self.writer.push_add(l.iter().copied().map(dimacs_lit)),
                ProofEvent::Delete(l) => self
                    .writer
                    .push_delete(l.iter().copied().map(dimacs_lit)),
            }
        }
        self.consumed = events.len();
        let mut trailer = Vec::with_capacity(core.len() + 2);
        if !core.is_empty() {
            trailer.push(Step::Add(core.iter().map(|&l| dimacs_lit(!l)).collect()));
            for &l in core {
                trailer.push(Step::Assume(dimacs_lit(l)));
            }
        }
        trailer.push(Step::Add(vec![]));
        self.writer.snapshot_with(&trailer)
    }
}

/// One-shot [`Certifier::certificate_blob`], for callers outside a solver
/// loop (and the unit tests below).
#[cfg(test)]
pub(crate) fn certificate_blob(events: &[ProofEvent], core: &[Lit]) -> Vec<u8> {
    Certifier::default().certificate_blob(events, core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_sat::Var;

    #[test]
    fn bridge_matches_dimacs_convention() {
        assert_eq!(dimacs_lit(Lit::new(Var(0), true)), 1);
        assert_eq!(dimacs_lit(Lit::new(Var(0), false)), -1);
        assert_eq!(dimacs_lit(Lit::new(Var(6), true)), 7);
        assert_eq!(dimacs_lit(Lit::new(Var(6), false)), -7);
    }

    #[test]
    fn root_refutation_blob_checks() {
        // x ∧ ¬x, refuted at the root: the log alone plus Add([]) must be
        // accepted by the independent checker.
        let x = Lit::new(Var(0), true);
        let events = vec![ProofEvent::Input(vec![x]), ProofEvent::Input(vec![!x])];
        let blob = certificate_blob(&events, &[]);
        assert!(atropos_proof::check_blob(&blob).is_ok());
    }

    #[test]
    fn assumption_core_trailer_checks() {
        // (¬a ∨ ¬b) with failed core {a, b}: the trailer adds ¬core (RUP
        // against the input), assumes the core, and closes with ⊥.
        let a = Lit::new(Var(0), true);
        let b = Lit::new(Var(1), true);
        let events = vec![ProofEvent::Input(vec![!a, !b])];
        let blob = certificate_blob(&events, &[a, b]);
        assert!(atropos_proof::check_blob(&blob).is_ok());
    }
}
