//! The retained *reference* solver: the pre-arena CDCL implementation
//! (`Vec<Clause>` storage, plain `ClauseRef = usize` watcher lists, f64
//! clause activities, rebuild-style `reduce_db`). It is kept verbatim for
//! two jobs:
//!
//! 1. **Differential fuzzing** — `tests/arena_vs_reference.rs` checks the
//!    arena solver against this one on random CNFs: SAT/UNSAT verdicts
//!    must agree, models must satisfy the formula, and each solver's
//!    failed-assumption core must refute in the other.
//! 2. **Throughput baseline** — the `solver_stats` bench bin replays
//!    identical detection CNFs through both layouts for the
//!    `experiments/solver_stats.csv` speedup ratio.
//!
//! Semantics are identical to [`crate::solver::Solver`] (same decision
//! heuristic, same learning, same assumption handling); only the memory
//! layout differs, which legitimately perturbs the search order (the
//! arena's blocker fast path skips literal swaps the reference performs).
//! Both are deterministic on their own.

use crate::lit::{LBool, Lit, Var};
use crate::proof::ProofEvent;

pub use crate::solver::{SolveResult, SolverStats};

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
}

type ClauseRef = usize;

/// A binary max-heap over variables ordered by VSIDS activity, with a
/// position index for O(log n) re-heapification when an activity is bumped.
/// Replaces the former O(vars) scan per decision in `pick_branch` — the
/// difference matters once pair solvers are retained across a whole repair
/// run and answer thousands of queries each.
///
/// Removal is lazy: variables stay in the heap when assigned and are simply
/// skipped (and dropped) at [`OrderHeap::pop_max`] time; backtracking
/// re-inserts the unassigned ones. Ties in activity break towards the lower
/// variable index, keeping decisions fully deterministic.
#[derive(Debug, Default, Clone)]
struct OrderHeap {
    heap: Vec<Var>,
    /// `pos[v]` is the index of `v` in `heap`, or `ABSENT`.
    pos: Vec<usize>,
}

impl OrderHeap {
    const ABSENT: usize = usize::MAX;

    /// "a ranks before b": strictly higher activity, ties by lower index.
    #[inline]
    fn before(activity: &[f64], a: Var, b: Var) -> bool {
        let (aa, ab) = (activity[a.index()], activity[b.index()]);
        aa > ab || (aa == ab && a.0 < b.0)
    }

    /// Registers a new variable slot (initially absent from the heap).
    fn push_var(&mut self) {
        self.pos.push(Self::ABSENT);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] != Self::ABSENT
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap property after `v`'s activity increased.
    fn bumped(&mut self, v: Var, activity: &[f64]) {
        let i = self.pos[v.index()];
        if i != Self::ABSENT {
            self.sift_up(i, activity);
        }
    }

    /// Pops the highest-ranked variable, or `None` when empty.
    fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.index()] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(activity, self.heap[i], self.heap[parent]) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && Self::before(activity, self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && Self::before(activity, self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].index()] = i;
        self.pos[self.heap[j].index()] = j;
    }
}


/// A CDCL SAT solver.
///
/// The solver owns all of its state (no shared-memory interior), so it is
/// `Send` (pinned below), like the arena solver. It is *not*
/// concurrency-safe (`&mut` access only); parallelism is the callers'
/// business, one solver per worker at a time. It is `Clone` like
/// the arena solver.
///
/// # Examples
///
/// ```
/// use atropos_sat::reference::Solver;
/// use atropos_sat::Var;
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([a.positive(), b.positive()]);
/// s.add_clause([a.negative()]);
/// let model = s.solve().model().unwrap().to_vec();
/// assert!(!model[a.index()] && model[b.index()]);
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<ClauseRef>>, // indexed by Lit::index
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    phase: Vec<bool>,
    order: OrderHeap, // VSIDS order heap (lazy removal of assigned vars)
    unsat: bool,
    stats: SolverStats,
    seen: Vec<bool>,
    failed: Vec<Lit>,
    num_learnt: usize,
    /// DRAT-style event log; `None` (the default) makes logging a no-op.
    proof: Option<Vec<ProofEvent>>,
}

// Any non-Send field added to the solver stack should fail compilation
// here.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Solver>();
    assert_send::<SolveResult>();
};

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE: f64 = 1e100;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            phase: Vec::new(),
            order: OrderHeap::default(),
            unsat: false,
            stats: SolverStats::default(),
            seen: Vec::new(),
            failed: Vec::new(),
            num_learnt: 0,
            proof: None,
        }
    }

    /// Turns DRAT-style proof logging on or off. Unlike the arena solver,
    /// which names only a refutation's core, this solver keeps the
    /// cumulative log of every clause entering or leaving its database —
    /// the proof differential suite's oracle.
    ///
    /// # Panics
    ///
    /// Panics when enabled on a solver that already holds clauses or root
    /// facts: the log would miss their inputs.
    pub fn set_proof_logging(&mut self, on: bool) {
        if on {
            assert!(
                self.clauses.is_empty() && self.trail.is_empty(),
                "proof logging must be enabled before the first clause"
            );
            self.proof.get_or_insert_with(Vec::new);
        } else {
            self.proof = None;
        }
    }

    /// Whether proof logging is on.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// The DRAT-style events logged so far (empty when logging is off).
    pub fn proof_events(&self) -> &[ProofEvent] {
        self.proof.as_deref().unwrap_or(&[])
    }

    #[inline]
    fn log_proof(&mut self, event: impl FnOnce() -> ProofEvent) {
        if let Some(log) = self.proof.as_mut() {
            log.push(event());
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_var();
        self.order.insert(v, &self.activity);
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

    /// Number of clauses currently stored (original plus retained learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// After [`Solver::solve_with_assumptions`] returns
    /// [`SolveResult::Unsat`], the subset of the assumption literals whose
    /// conjunction already contradicts the formula (the *failed-assumption
    /// core*). Empty when the formula is unsatisfiable on its own.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// Exports the stored problem (root facts as units, then every
    /// original clause) — the baseline counterpart of the arena solver's
    /// [`crate::solver::Solver::problem_clauses`].
    pub fn problem_clauses(&self) -> Vec<Vec<Lit>> {
        debug_assert!(self.trail_lim.is_empty(), "export happens at the root");
        let mut out = Vec::new();
        for &l in &self.trail {
            out.push(vec![l]);
        }
        for c in &self.clauses {
            if !c.learnt {
                out.push(c.lits.clone());
            }
        }
        out
    }

    fn value(&self, l: Lit) -> LBool {
        self.assign[l.var().index()].under(l.is_positive())
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Duplicated literals are removed; tautologies are silently dropped; an
    /// empty clause makes the formula trivially unsatisfiable. Clauses may
    /// be added before the first solve and between solves (the solver
    /// returns to the root decision level after every call); previously
    /// learnt clauses stay valid because learning is deduction.
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        debug_assert!(
            self.trail_lim.is_empty(),
            "the solver is at the root level between solves"
        );
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for l in &lits {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
        }
        lits.sort();
        lits.dedup();
        // Tautology?
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return;
            }
        }
        // Log the clause pre-simplification; see the arena solver.
        self.log_proof(|| ProofEvent::Input(lits.clone()));
        // Remove root-level falsified literals; detect satisfied clauses.
        lits.retain(|&l| self.value(l) != LBool::False);
        if lits.iter().any(|&l| self.value(l) == LBool::True) {
            return;
        }
        match lits.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(lits[0], None) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                self.attach(lits, false);
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        let cref = self.clauses.len();
        self.watches[(!lits[0]).index()].push(cref);
        self.watches[(!lits[1]).index()].push(cref);
        self.num_learnt += usize::from(learnt);
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
        });
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) -> bool {
        match self.value(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = l.var().index();
                self.assign[v] = LBool::from_bool(l.is_positive());
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.phase[v] = l.is_positive();
                self.trail.push(l);
                true
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Propagates all enqueued facts; returns a conflicting clause on conflict.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                // The false literal must be at position 1.
                let (l0, l1) = {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == !p {
                        c.lits.swap(0, 1);
                    }
                    (c.lits[0], c.lits[1])
                };
                debug_assert_eq!(l1, !p);
                if self.value(l0) == LBool::True {
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                let n = self.clauses[cref].lits.len();
                for k in 2..n {
                    let lk = self.clauses[cref].lits[k];
                    if self.value(lk) != LBool::False {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[(!lk).index()].push(cref);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(l0, Some(cref)) {
                    self.watches[p.index()] = ws;
                    self.prop_head = self.trail.len();
                    return Some(cref);
                }
                i += 1;
            }
            self.watches[p.index()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE {
            // Uniform rescaling preserves the relative order of every pair
            // of activities, so the heap invariant survives untouched.
            for a in &mut self.activity {
                *a /= RESCALE;
            }
            self.var_inc /= RESCALE;
        }
        self.order.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        self.clauses[cref].activity += self.cla_inc;
        if self.clauses[cref].activity > RESCALE {
            for c in &mut self.clauses {
                c.activity /= RESCALE;
            }
            self.cla_inc /= RESCALE;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::new(Var(0), true)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut idx = self.trail.len();
        let current = self.decision_level();

        loop {
            self.bump_clause(cref);
            let lits: Vec<Lit> = self.clauses[cref].lits.clone();
            let skip_first = p.is_some();
            for (k, &q) in lits.iter().enumerate() {
                if skip_first && k == 0 {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal on the trail to resolve on.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[idx];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            cref = self.reason[lit.var().index()].expect("non-decision must have a reason");
            p = Some(lit);
        }
        learnt[0] = !p.expect("UIP exists");

        // Compute backtrack level (second-highest level in the clause).
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, bt)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            for &l in &self.trail[lim..] {
                let v = l.var();
                self.assign[v.index()] = LBool::Undef;
                self.reason[v.index()] = None;
                self.order.insert(v, &self.activity);
            }
            self.trail.truncate(lim);
        }
        self.prop_head = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v.index()] == LBool::Undef {
                return Some(Lit::new(v, self.phase[v.index()]));
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Delete the lower-activity half of removable learnt clauses by
        // rebuilding the clause store (keeps refs dense and watches exact).
        let mut acts: Vec<f64> = self
            .clauses
            .iter()
            .filter(|c| c.learnt && c.lits.len() > 2)
            .map(|c| c.activity)
            .collect();
        if acts.len() < 2 {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).expect("activities are finite"));
        let median = acts[acts.len() / 2];

        let locked: Vec<Option<ClauseRef>> = self.reason.clone();
        let is_locked = |cref: ClauseRef, c: &Clause, solver_assign: &[LBool]| -> bool {
            let l0 = c.lits[0];
            solver_assign[l0.var().index()] != LBool::Undef
                && locked[l0.var().index()] == Some(cref)
        };

        let old = std::mem::take(&mut self.clauses);
        let mut remap: Vec<Option<ClauseRef>> = vec![None; old.len()];
        for w in &mut self.watches {
            w.clear();
        }
        for (old_ref, c) in old.into_iter().enumerate() {
            let keep = !c.learnt
                || c.lits.len() <= 2
                || c.activity >= median
                || is_locked(old_ref, &c, &self.assign);
            if keep {
                let new_ref = self.clauses.len();
                remap[old_ref] = Some(new_ref);
                self.watches[(!c.lits[0]).index()].push(new_ref);
                self.watches[(!c.lits[1]).index()].push(new_ref);
                self.clauses.push(c);
            } else {
                if self.proof.is_some() {
                    let lits = c.lits.clone();
                    self.log_proof(|| ProofEvent::Delete(lits));
                }
                self.stats.deleted += 1;
                self.num_learnt -= 1;
            }
        }
        for r in &mut self.reason {
            *r = r.and_then(|old_ref| remap[old_ref]);
        }
    }

    /// Computes the failed-assumption core once assumption `p` was found
    /// falsified: the subset of already-applied assumption decisions whose
    /// propagation closure implies `¬p`, plus `p` itself. Mirrors MiniSat's
    /// `analyzeFinal`, except the core is reported as the assumption
    /// literals themselves (their conjunction is inconsistent with the
    /// formula).
    fn analyze_final(&mut self, p: Lit) {
        self.failed.clear();
        self.failed.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var().index();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                // Decisions below the branching levels are assumptions.
                None => self.failed.push(q),
                Some(cref) => {
                    for k in 1..self.clauses[cref].lits.len() {
                        let l = self.clauses[cref].lits[k];
                        if self.level[l.var().index()] > 0 {
                            self.seen[l.var().index()] = true;
                        }
                    }
                }
            }
        }
        self.seen[p.var().index()] = false;
    }

    /// Runs the CDCL loop to completion with no assumptions.
    ///
    /// Equivalent to `solve_with_assumptions(&[])`; the solver may be
    /// re-used (and extended with clauses) afterwards.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides the formula under the conjunction of `assumptions`.
    ///
    /// Assumptions act like unit clauses scoped to this one call: they are
    /// installed as the bottom-most decisions, so everything learnt while
    /// solving remains valid for later calls with different assumptions.
    /// On [`SolveResult::Unsat`], [`Solver::failed_assumptions`] holds an
    /// inconsistent subset of `assumptions` (empty if the formula itself is
    /// unsatisfiable). The solver backtracks to the root level before
    /// returning, so clauses may be added afterwards.
    ///
    /// # Panics
    ///
    /// Panics if an assumption references an unallocated variable.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.failed.clear();
        for l in assumptions {
            assert!(l.var().index() < self.num_vars(), "unallocated assumption");
        }
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack(0);
        // Re-run root propagation: clauses added since the last call may
        // have enqueued new root facts.
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }
        let mut conflicts_until_restart = luby(self.stats.restarts) * 100;
        // Budget learnt clauses against the *original* clause count so the
        // limit does not creep upwards across incremental calls.
        let mut learnt_limit = ((self.clauses.len() - self.num_learnt) / 3).max(2000);
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(conflict);
                // First-UIP clauses are RUP over the live database; see
                // the arena solver's identical hook.
                self.log_proof(|| ProofEvent::Add(learnt.clone()));
                self.backtrack(bt);
                if learnt.len() == 1 {
                    let ok = self.enqueue(learnt[0], None);
                    debug_assert!(ok, "asserting literal must be enqueueable");
                } else {
                    let cref = self.attach(learnt.clone(), true);
                    self.bump_clause(cref);
                    let ok = self.enqueue(learnt[0], Some(cref));
                    debug_assert!(ok, "asserting literal must be enqueueable");
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    conflicts_until_restart = luby(self.stats.restarts) * 100;
                    self.backtrack(0);
                }
                if self.num_learnt > learnt_limit {
                    self.reduce_db();
                    learnt_limit += learnt_limit / 10;
                }
                // Install pending assumptions as the next decisions. A
                // satisfied assumption still opens a (possibly empty)
                // decision level so `decision_level()` keeps indexing the
                // assumption array; a falsified one yields the core.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        LBool::True => self.trail_lim.push(self.trail.len()),
                        LBool::False => {
                            self.analyze_final(p);
                            self.backtrack(0);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(p) => p,
                    None => match self.pick_branch() {
                        None => {
                            let model = self
                                .assign
                                .iter()
                                .map(|&a| a == LBool::True)
                                .collect();
                            self.backtrack(0);
                            return SolveResult::Sat(model);
                        }
                        Some(l) => {
                            self.stats.decisions += 1;
                            l
                        }
                    },
                };
                self.trail_lim.push(self.trail.len());
                let ok = self.enqueue(next, None);
                debug_assert!(ok, "decision variable was unassigned");
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …).
fn luby(i: u64) -> u64 {
    let i = i + 1;
    let mut k = 1u32;
    while (1u64 << k) < i + 1 {
        k += 1;
    }
    if (1u64 << k) == i + 1 {
        return 1 << (k - 1);
    }
    luby(i - (1 << (k - 1)))
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
        assert!(s.solve().is_sat());
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
    fn order_heap_pops_by_activity_with_index_ties() {
        let mut h = OrderHeap::default();
        let activity = [1.0, 3.0, 3.0, 0.5];
        for i in 0..4u32 {
            h.push_var();
            h.insert(Var(i), &activity);
        }
        // Highest activity first; equal activities break to the lower index.
        assert_eq!(h.pop_max(&activity), Some(Var(1)));
        assert_eq!(h.pop_max(&activity), Some(Var(2)));
        assert_eq!(h.pop_max(&activity), Some(Var(0)));
        assert_eq!(h.pop_max(&activity), Some(Var(3)));
        assert_eq!(h.pop_max(&activity), None);
    }

    #[test]
    fn order_heap_reorders_after_bump_and_reinsert() {
        let mut h = OrderHeap::default();
        let mut activity = [0.0, 0.0, 0.0];
        for i in 0..3u32 {
            h.push_var();
            h.insert(Var(i), &activity);
        }
        activity[2] = 5.0;
        h.bumped(Var(2), &activity);
        assert_eq!(h.pop_max(&activity), Some(Var(2)));
        assert!(!h.contains(Var(2)));
        // Re-insertion (as on backtrack) puts it back on top; double insert
        // is a no-op.
        h.insert(Var(2), &activity);
        h.insert(Var(2), &activity);
        assert_eq!(h.pop_max(&activity), Some(Var(2)));
        assert_eq!(h.pop_max(&activity), Some(Var(0)));
        assert_eq!(h.pop_max(&activity), Some(Var(1)));
        assert_eq!(h.pop_max(&activity), None);
    }

    /// A solver built on one thread keeps working (same verdicts, retained
    /// learnt clauses) after moving to another — the migration a retained
    /// detection solver makes inside its work item, to a worker and back.
    #[test]
    fn solver_migrates_between_threads() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0].positive(), v[1].positive()]);
        s.add_clause([v[1].negative(), v[2].positive()]);
        assert!(s.solve_with_assumptions(&[v[0].negative()]).is_sat());
        let (a, b) = (v[1], v[2]);
        let mut s = std::thread::spawn(move || {
            assert!(s.solve_with_assumptions(&[a.negative()]).is_sat());
            s
        })
        .join()
        .unwrap();
        let v = [v[0], a, b];
        s.add_clause([v[2].negative()]);
        assert_eq!(
            s.solve_with_assumptions(&[v[1].positive()]),
            SolveResult::Unsat
        );
        assert!(!s.failed_assumptions().is_empty());
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..9).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
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
            // CDCL.
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
