//! The reference solver: unit propagation over two watched literals,
//! branching on the lowest-index unassigned variable with the false phase
//! first, and chronological backtracking. It learns nothing, so it stays
//! small enough to check by reading, and it is complete on any CNF: every
//! branch it leaves is either a model or ends in a conflict under a
//! decision it then flips.
//!
//! On a Horn formula, such as the detector's anomaly encodings, root
//! propagation refutes every unsatisfiable query, and the false phase
//! never conflicts on a satisfiable one, so the search never backtracks.

use crate::lit::{LBool, Lit, Var};

/// Outcome of [`Solver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (one value per variable).
    Sat(Vec<bool>),
    /// The formula is unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat => None,
        }
    }
}

/// Work counters, accumulated over the solver's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Branching decisions made (flipped decisions not counted).
    pub decisions: u64,
    /// Assigned literals whose watches were visited.
    pub propagations: u64,
    /// Conflicts met during search.
    pub conflicts: u64,
}

/// A reference SAT solver (see the module docs).
///
/// # Examples
///
/// ```
/// use atropos_sat::Solver;
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([a.negative()]);
/// let model = s.solve().model().unwrap().to_vec();
/// assert!(!model[a.index()] && model[b.index()]);
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    /// The literals of every stored clause, back to back.
    lits: Vec<Lit>,
    /// Per stored clause: the range of its two or more literals in `lits`.
    /// The first two are watched.
    clauses: Vec<(usize, usize)>,
    /// Indexed by [`Lit::index`]: the clauses that watch this literal's
    /// negation, visited when the literal becomes true.
    watches: Vec<Vec<usize>>,
    assign: Vec<LBool>,
    /// Assigned literals in assignment order; the root facts come first.
    trail: Vec<Lit>,
    /// Trail position of the next literal to propagate.
    prop_head: usize,
    /// Per decision level: the trail position of its first literal, and
    /// whether that literal is a refuted decision's negation rather than a
    /// decision.
    levels: Vec<(usize, bool)>,
    /// The root facts contradict the formula.
    unsat: bool,
    stats: SolverStats,
}

/// The value of `l` under `assign`.
fn value(assign: &[LBool], l: Lit) -> LBool {
    assign[l.var().index()].under(l.is_positive())
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Solver statistics so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of stored clauses: those of two or more literals once the
    /// root facts at the time they were added had their say.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause (a disjunction of literals), between solves.
    ///
    /// The literals are sorted and deduplicated, and a tautology is
    /// dropped. So is a clause the root facts satisfy, and the literals
    /// they falsify are stripped from the rest. What is left is stored if
    /// it has two or more literals; a unit becomes a root fact and
    /// propagates at once; an empty clause makes the formula
    /// unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        debug_assert!(self.levels.is_empty(), "clauses are added at the root");
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for l in &lits {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
        }
        lits.sort_unstable();
        lits.dedup();
        // Sorting puts a variable's two literals side by side.
        let tautology = lits.windows(2).any(|w| w[0].var() == w[1].var());
        if self.unsat || tautology || lits.iter().any(|&l| self.value(l) == LBool::True) {
            return;
        }
        lits.retain(|&l| self.value(l) != LBool::False);
        match lits.len() {
            0 => self.unsat = true,
            1 => {
                self.enqueue(lits[0]);
                self.unsat = !self.propagate();
            }
            _ => {
                let c = self.clauses.len();
                self.watches[(!lits[0]).index()].push(c);
                self.watches[(!lits[1]).index()].push(c);
                self.clauses
                    .push((self.lits.len(), self.lits.len() + lits.len()));
                self.lits.extend(lits);
            }
        }
    }

    fn value(&self, l: Lit) -> LBool {
        value(&self.assign, l)
    }

    fn enqueue(&mut self, l: Lit) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        self.assign[l.var().index()] = LBool::from_bool(l.is_positive());
        self.trail.push(l);
    }

    /// Propagates every literal enqueued since the last call; false on a
    /// conflict.
    fn propagate(&mut self) -> bool {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            // No clause moves its watch onto `!p`, which is false, so the
            // list can be taken out while its clauses are visited.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let (mut i, mut kept) = (0, 0);
            let mut conflict = false;
            while i < ws.len() {
                let c = ws[i];
                i += 1;
                let (start, end) = self.clauses[c];
                let clause = &mut self.lits[start..end];
                if clause[0] == !p {
                    clause.swap(0, 1);
                }
                let first = clause[0];
                if value(&self.assign, first) != LBool::True {
                    let open =
                        (2..clause.len()).find(|&k| value(&self.assign, clause[k]) != LBool::False);
                    if let Some(k) = open {
                        // Watch a literal that is not false instead.
                        clause.swap(1, k);
                        self.watches[(!clause[1]).index()].push(c);
                        continue;
                    }
                    // Every literal but the first is false.
                    if value(&self.assign, first) == LBool::False {
                        conflict = true;
                    } else {
                        self.enqueue(first);
                    }
                }
                ws[kept] = c;
                kept += 1;
                if conflict {
                    break;
                }
            }
            // Keep the watches a conflict left unvisited.
            ws.copy_within(i.., kept);
            ws.truncate(kept + ws.len() - i);
            self.watches[p.index()] = ws;
            if conflict {
                self.prop_head = self.trail.len();
                return false;
            }
        }
        true
    }

    /// Unassigns every literal from trail position `start` on.
    fn undo(&mut self, start: usize) {
        for l in self.trail.drain(start..) {
            self.assign[l.var().index()] = LBool::Undef;
        }
        self.prop_head = start;
    }

    /// Decides the formula. The solver returns to the root afterwards, so
    /// clauses may be added and the formula solved again.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_within(u64::MAX)
            .expect("an unbounded search decides the formula")
    }

    /// [`Solver::solve`] under a budget: `None` once the search meets more
    /// than `max_conflicts` conflicts without deciding the formula. Either
    /// way the solver returns to the root.
    pub fn solve_within(&mut self, max_conflicts: u64) -> Option<SolveResult> {
        let mut conflicts = 0;
        // Every variable below the cursor is assigned.
        let mut next = 0;
        while !self.unsat {
            if !self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if conflicts > max_conflicts {
                    self.return_to_root();
                    return None;
                }
                match self.backtrack() {
                    Some(v) => next = v,
                    None => self.unsat = true,
                }
                continue;
            }
            while next < self.num_vars() && self.assign[next] != LBool::Undef {
                next += 1;
            }
            if next == self.num_vars() {
                let model = self.assign.iter().map(|&a| a == LBool::True).collect();
                self.return_to_root();
                return Some(SolveResult::Sat(model));
            }
            self.stats.decisions += 1;
            self.levels.push((self.trail.len(), false));
            self.enqueue(Var(next as u32).negative());
        }
        Some(SolveResult::Unsat)
    }

    /// Undoes every decision level, keeping the root facts.
    fn return_to_root(&mut self) {
        if let Some(&(root_end, _)) = self.levels.first() {
            self.undo(root_end);
        }
        self.levels.clear();
    }

    /// Undoes the levels down to the latest one that opened with a
    /// decision, and reopens it with the decision's negation. Returns the
    /// decision's variable, or `None` when every decision is refuted.
    fn backtrack(&mut self) -> Option<usize> {
        while let Some((start, flipped)) = self.levels.pop() {
            let decision = self.trail[start];
            self.undo(start);
            if !flipped {
                self.levels.push((start, true));
                self.enqueue(!decision);
                return Some(decision.var().index());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(Solver::new().solve().is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause([]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0].positive()]);
        s.add_clause([v[0].negative(), v[1].positive()]);
        s.add_clause([v[1].negative(), v[2].negative()]);
        let m = s.solve().model().unwrap().to_vec();
        assert!(m[0] && m[1] && !m[2]);
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.positive()]);
        s.add_clause([v.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.positive(), v.negative()]);
        assert_eq!(s.num_clauses(), 0);
        assert!(s.solve().is_sat());
    }

    /// Branching takes the lowest-index unassigned variable, false first:
    /// (a ∨ b ∨ c) ∧ (¬b ∨ c) decides a false, then b false, and c follows.
    #[test]
    fn branches_on_the_lowest_variable_false_first() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0].positive(), v[1].positive(), v[2].positive()]);
        s.add_clause([v[1].negative(), v[2].positive()]);
        let m = s.solve().model().unwrap().to_vec();
        assert_eq!(m, [false, false, true, false]);
        let stats = s.stats();
        assert_eq!((stats.decisions, stats.conflicts), (3, 0));
    }

    #[test]
    fn simple_3sat_instance() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0].positive(), v[1].positive(), v[2].negative()]);
        s.add_clause([v[0].negative(), v[2].positive(), v[3].positive()]);
        s.add_clause([v[1].negative(), v[2].positive()]);
        s.add_clause([v[3].negative(), v[0].positive()]);
        let m = s.solve().model().unwrap().to_vec();
        // Verify the model satisfies every clause.
        let val = |l: Lit| m[l.var().index()] == l.is_positive();
        assert!(val(v[0].positive()) || val(v[1].positive()) || val(v[2].negative()));
        assert!(val(v[0].negative()) || val(v[2].positive()) || val(v[3].positive()));
        assert!(val(v[1].negative()) || val(v[2].positive()));
        assert!(val(v[3].negative()) || val(v[0].positive()));
    }

    /// Pigeonhole principle: n+1 pigeons cannot fit n holes.
    fn pigeonhole(pigeons: usize, holes: usize) -> SolveResult {
        let mut s = Solver::new();
        let mut at = vec![vec![Var(0); holes]; pigeons];
        for p in at.iter_mut() {
            for h in p.iter_mut() {
                *h = s.new_var();
            }
        }
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| at[p][h].positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause([at[p1][h].negative(), at[p2][h].negative()]);
                }
            }
        }
        s.solve()
    }

    #[test]
    fn pigeonhole_unsat() {
        assert_eq!(pigeonhole(5, 4), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        assert!(pigeonhole(4, 4).is_sat());
    }

    #[test]
    fn stats_are_populated() {
        let s = &mut Solver::new();
        let v = lits(s, 6);
        for i in 0..5 {
            s.add_clause([v[i].positive(), v[i + 1].negative()]);
        }
        s.add_clause([v[0].negative(), v[5].positive()]);
        assert!(s.solve().is_sat());
        assert!(s.stats().propagations > 0 || s.stats().decisions > 0);
    }

    /// Exhaustive check against brute force on all 3-CNF formulas over a
    /// small fixed set of clause shapes.
    #[test]
    fn agrees_with_brute_force_on_small_formulas() {
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..300 {
            let nv = 4 + (next() % 5) as usize; // 4..8 vars
            let nc = 5 + (next() % 25) as usize;
            let mut clauses = Vec::new();
            for _ in 0..nc {
                let len = 1 + (next() % 3) as usize;
                let mut cl = Vec::new();
                for _ in 0..len {
                    let v = (next() % nv as u64) as u32;
                    cl.push(Lit::new(Var(v), next() % 2 == 0));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << nv) {
                for cl in &clauses {
                    if !cl
                        .iter()
                        .any(|l| ((m >> l.var().0) & 1 == 1) == l.is_positive())
                    {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // The solver.
            let mut s = Solver::new();
            for _ in 0..nv {
                s.new_var();
            }
            for cl in &clauses {
                s.add_clause(cl.iter().copied());
            }
            let res = s.solve();
            assert_eq!(res.is_sat(), brute_sat, "disagreement on {clauses:?}");
            if let SolveResult::Sat(m) = res {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|l| m[l.var().index()] == l.is_positive()),
                        "model does not satisfy {cl:?}"
                    );
                }
            }
        }
    }
}
