//! Proof events and the core record a proof-logging solver keeps.
//!
//! A certificate is a sequence of content-based [`ProofEvent`]s — literal
//! vectors, never arena offsets:
//!
//! * [`ProofEvent::Input`] — an original clause as given to `add_clause`
//!   (sorted, deduplicated, tautologies dropped), *before* root-level
//!   simplification strips falsified literals, so a certificate's inputs
//!   are clauses of the problem formula, not of its current residue.
//! * [`ProofEvent::Add`] — a deduced clause: a first-UIP learnt clause.
//!   Every added clause is RUP with respect to the clauses before it,
//!   which is exactly what an independent checker re-verifies.
//! * [`ProofEvent::Delete`] — a clause leaving the database. A core never
//!   needs one, so the solver emits none; the variant carries the `d`
//!   lines of textual DRAT ([`crate::dimacs::parse_drat`]).
//!
//! The solver built by [`crate::Solver::with_proofs`] does not keep a
//! cumulative log. It keeps a core record: every input as given, every
//! lemma with its antecedents, and the clause behind each root fact. On
//! UNSAT it walks back from the final conflict and
//! [`crate::Solver::refutation`] returns only what the walk reached — the
//! inputs in input order, then the lemmas in learning order — the way
//! drat-trim trims a DRAT proof to its core. Appending the per-query
//! trailer (the failed-assumption core as a RUP clause, the assumptions,
//! and the empty clause) is the caller's job.

use crate::lit::{Lit, Var};

/// One clause-level event of a proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofEvent {
    /// An original problem clause (sorted, deduplicated).
    Input(Vec<Lit>),
    /// A deduced clause, RUP over everything alive before it.
    Add(Vec<Lit>),
    /// A clause removed from the database (content as stored).
    Delete(Vec<Lit>),
}

impl ProofEvent {
    /// The event's literal payload.
    pub fn lits(&self) -> &[Lit] {
        match self {
            ProofEvent::Input(l) | ProofEvent::Add(l) | ProofEvent::Delete(l) => l,
        }
    }
}

/// Names a clause of the core record: an input or a lemma id shifted
/// left by one, with bit 0 set for lemmas.
pub(crate) type ClauseCode = u32;

/// Ids must fit the 29 tag bits of an arena clause header.
const MAX_ID: u32 = (1 << 29) - 1;

/// [`ClauseCode`] of a root fact whose justification is not known yet
/// (its reason clause is still attached).
pub(crate) const NO_CLAUSE: ClauseCode = u32::MAX;

/// The code of a clause stored with tag `id`, learnt or not.
#[inline]
pub(crate) fn clause_code(id: u32, learnt: bool) -> ClauseCode {
    (id << 1) | ClauseCode::from(learnt)
}

/// Variable-length records packed back to back: record `i` is
/// `items[at[i]..at[i + 1]]`, the last one ending at `items.len()`.
#[derive(Debug, Clone)]
struct Records<T> {
    items: Vec<T>,
    at: Vec<u32>,
}

impl<T> Default for Records<T> {
    fn default() -> Self {
        Records {
            items: Vec::new(),
            at: Vec::new(),
        }
    }
}

impl<T: Copy> Records<T> {
    /// Appends a record; returns its index.
    fn push(&mut self, record: &[T]) -> u32 {
        let id = self.at.len() as u32;
        assert!(
            id <= MAX_ID,
            "proof logging holds at most 2^29 clauses of a kind"
        );
        self.at.push(self.items.len() as u32);
        self.items.extend_from_slice(record);
        id
    }

    fn get(&self, i: usize) -> &[T] {
        let end = self.at.get(i + 1).map_or(self.items.len(), |&e| e as usize);
        &self.items[self.at[i] as usize..end]
    }

    fn len(&self) -> usize {
        self.at.len()
    }
}

/// What a proof-logging solver keeps to name the core of a refutation.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreLog {
    /// Every input clause, as given.
    inputs: Records<Lit>,
    /// Every lemma, in learning order.
    lemmas: Records<Lit>,
    /// Per lemma: the clauses it was resolved from.
    ante: Records<ClauseCode>,
    /// Per lemma: the root facts that falsified literals of its
    /// antecedents (conflict analysis skips them, the checker cannot).
    roots: Records<Var>,
    /// Per variable: the clause that forced its root value, recorded when
    /// the fact had no reason clause or when `simplify` cleared it.
    pub(crate) root_reason: Vec<ClauseCode>,
    /// The last UNSAT answer's core: input codes ascending, then lemma
    /// codes ascending.
    pub(crate) core: Vec<ClauseCode>,
}

impl CoreLog {
    /// Records an input clause as given; returns its id.
    pub(crate) fn push_input(&mut self, lits: &[Lit]) -> u32 {
        self.inputs.push(lits)
    }

    /// Records a lemma with its antecedent clauses and root facts;
    /// returns its id.
    pub(crate) fn push_lemma(&mut self, lits: &[Lit], ante: &[ClauseCode], roots: &[Var]) -> u32 {
        self.ante.push(ante);
        self.roots.push(roots);
        self.lemmas.push(lits)
    }

    /// Number of lemmas recorded.
    pub(crate) fn num_lemmas(&self) -> usize {
        self.lemmas.len()
    }

    /// The literals of a recorded clause (an input as given).
    pub(crate) fn lits(&self, code: ClauseCode) -> &[Lit] {
        let id = (code >> 1) as usize;
        if code & 1 == 0 {
            self.inputs.get(id)
        } else {
            self.lemmas.get(id)
        }
    }

    /// The clauses lemma `id` was resolved from.
    pub(crate) fn antecedents(&self, id: usize) -> &[ClauseCode] {
        self.ante.get(id)
    }

    /// The root facts lemma `id`'s derivation rests on.
    pub(crate) fn root_facts(&self, id: usize) -> &[Var] {
        self.roots.get(id)
    }

    /// The last core as events: inputs, then lemmas.
    pub(crate) fn refutation(&self) -> Vec<ProofEvent> {
        self.core
            .iter()
            .map(|&code| {
                let lits = self.lits(code).to_vec();
                if code & 1 == 0 {
                    ProofEvent::Input(lits)
                } else {
                    ProofEvent::Add(lits)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_payload_is_uniform() {
        let l = vec![Var(0).positive(), Var(1).negative()];
        for e in [
            ProofEvent::Input(l.clone()),
            ProofEvent::Add(l.clone()),
            ProofEvent::Delete(l.clone()),
        ] {
            assert_eq!(e.lits(), &l[..]);
        }
    }

    #[test]
    fn records_are_read_back_by_code() {
        let (a, b, c) = (Var(0).positive(), Var(1).negative(), Var(2).positive());
        let mut log = CoreLog::default();
        assert_eq!(log.push_input(&[a, b]), 0);
        assert_eq!(log.push_input(&[]), 1);
        assert_eq!(log.push_input(&[c]), 2);
        let ante = [clause_code(0, false), clause_code(2, false)];
        assert_eq!(log.push_lemma(&[b, c], &ante, &[Var(0)]), 0);
        assert_eq!(log.lits(clause_code(0, false)), &[a, b]);
        assert!(log.lits(clause_code(1, false)).is_empty());
        assert_eq!(log.lits(clause_code(2, false)), &[c]);
        assert_eq!(log.lits(clause_code(0, true)), &[b, c]);
        assert_eq!(log.antecedents(0), &ante);
        assert_eq!(log.root_facts(0), &[Var(0)]);
        log.core = vec![clause_code(2, false), clause_code(0, true)];
        assert_eq!(
            log.refutation(),
            vec![ProofEvent::Input(vec![c]), ProofEvent::Add(vec![b, c])]
        );
    }
}
