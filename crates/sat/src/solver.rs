//! A CDCL SAT solver in the MiniSat lineage.
//!
//! Features: two-watched-literal propagation over blocker-literal watcher
//! lists, first-UIP conflict analysis with clause learning, VSIDS branching
//! with phase saving, Luby restarts, activity-based deletion of learnt
//! clauses, root-level simplification, and **incremental solving under
//! assumptions**: [`Solver::solve_with_assumptions`] decides the formula
//! conjoined with a set of assumption literals, retains learnt clauses
//! across calls, and on failure exposes a failed-assumption core via
//! [`Solver::failed_assumptions`]. Clauses may be added between calls.
//! The solver is deliberately deterministic: identical inputs yield
//! identical models.
//!
//! Clause storage is a flat arena: every clause lives contiguously in one
//! `Vec<u32>` as `[header | len | lits... | activity?]`, and a `ClauseRef`
//! is an offset into that buffer. Propagation therefore walks linear
//! memory instead of chasing one heap `Vec<Lit>` per clause, and most
//! watch visits are resolved by the watcher's cached *blocker* literal
//! without touching the clause at all. Deleting learnt clauses marks arena
//! records as garbage; when enough of the buffer is dead the arena is
//! compacted with a relocation pass (watches and reasons are remapped
//! through forwarding offsets).
//!
//! With proofs on ([`Solver::with_proofs`]) the solver also keeps a core
//! record ([`crate::proof`]): each clause it attaches carries the id of
//! the input or lemma it came from in the unused bits of its arena header,
//! and every UNSAT answer names the clauses its refutation reaches
//! ([`Solver::refutation`]). Every lemma comes from this solver's own
//! conflict analysis: it takes in no clause learnt elsewhere.

use crate::lit::{LBool, Lit, Var};
use crate::proof::{clause_code, ClauseCode, CoreLog, ProofEvent, NO_CLAUSE};

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

/// Offset of a clause record in the arena.
type ClauseRef = u32;

/// Header flag: the clause is learnt (and carries an activity word).
const LEARNT_BIT: u32 = 1;
/// Header flag: the record is garbage (deleted, awaiting compaction).
const MARK_BIT: u32 = 2;
/// Header flag: the record was relocated; the length word holds the
/// forwarding offset into the new buffer (compaction-internal).
const RELOC_BIT: u32 = 4;
/// The header's remaining bits hold the clause's input or lemma id when
/// proofs are on (zero otherwise).
const TAG_SHIFT: u32 = 3;

/// The flat clause store: `[header | len | lits... | activity?]` records
/// packed back to back in one `u32` buffer. Literals are stored as their
/// [`Lit::index`] encoding, which is already a dense `u32`; learnt
/// clauses carry one trailing word holding their activity as `f32` bits.
#[derive(Debug, Clone, Default)]
struct Arena {
    data: Vec<u32>,
    /// Words occupied by marked (deleted) records.
    wasted: usize,
}

impl Arena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool, tag: u32) -> ClauseRef {
        let cref = self.data.len() as ClauseRef;
        self.data.reserve(2 + lits.len() + usize::from(learnt));
        self.data
            .push((tag << TAG_SHIFT) | if learnt { LEARNT_BIT } else { 0 });
        self.data.push(lits.len() as u32);
        self.data.extend(lits.iter().map(|l| l.index() as u32));
        if learnt {
            self.data.push(0f32.to_bits());
        }
        cref
    }

    #[inline]
    fn len(&self, cref: ClauseRef) -> usize {
        self.data[cref as usize + 1] as usize
    }

    #[inline]
    fn lit(&self, cref: ClauseRef, i: usize) -> Lit {
        Lit::from_index(self.data[cref as usize + 2 + i] as usize)
    }

    #[inline]
    fn swap_lits(&mut self, cref: ClauseRef, i: usize, j: usize) {
        let base = cref as usize + 2;
        self.data.swap(base + i, base + j);
    }

    #[inline]
    fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.data[cref as usize] & LEARNT_BIT != 0
    }

    /// The core-record code of the clause at `cref` (proofs on).
    fn code(&self, cref: ClauseRef) -> ClauseCode {
        clause_code(self.data[cref as usize] >> TAG_SHIFT, self.is_learnt(cref))
    }

    fn activity(&self, cref: ClauseRef) -> f32 {
        debug_assert!(self.is_learnt(cref));
        let len = self.len(cref);
        f32::from_bits(self.data[cref as usize + 2 + len])
    }

    fn set_activity(&mut self, cref: ClauseRef, act: f32) {
        debug_assert!(self.is_learnt(cref));
        let len = self.len(cref);
        self.data[cref as usize + 2 + len] = act.to_bits();
    }

    /// Words occupied by the record at `cref`.
    fn record_words(&self, cref: ClauseRef) -> usize {
        2 + self.len(cref) + usize::from(self.is_learnt(cref))
    }

    /// Marks the record garbage; the space is reclaimed by compaction.
    fn free(&mut self, cref: ClauseRef) {
        debug_assert_eq!(self.data[cref as usize] & (MARK_BIT | RELOC_BIT), 0);
        self.wasted += self.record_words(cref);
        self.data[cref as usize] |= MARK_BIT;
    }

    /// Fraction of the buffer occupied by garbage records.
    fn wasted_ratio(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.wasted as f64 / self.data.len() as f64
        }
    }

    /// Copies the record into `to` and leaves a forwarding offset behind,
    /// so later [`Arena::forward`] calls on the old ref resolve to the new
    /// one. Idempotent: an already-relocated record is not copied twice.
    fn relocate(&mut self, cref: ClauseRef, to: &mut Vec<u32>) {
        let off = cref as usize;
        if self.data[off] & RELOC_BIT != 0 {
            return;
        }
        debug_assert_eq!(self.data[off] & MARK_BIT, 0, "garbage is never relocated");
        let words = self.record_words(cref);
        let new_ref = to.len() as u32;
        to.extend_from_slice(&self.data[off..off + words]);
        self.data[off] = RELOC_BIT;
        self.data[off + 1] = new_ref;
    }

    /// The post-relocation offset of a live record.
    fn forward(&self, cref: ClauseRef) -> ClauseRef {
        let off = cref as usize;
        debug_assert!(self.data[off] & RELOC_BIT != 0, "record was relocated");
        self.data[off + 1]
    }
}

/// A clause watcher: the clause plus a cached *blocker* literal (some
/// other literal of the clause). If the blocker is already true the
/// clause is satisfied and the watch visit never touches clause memory —
/// the common case in the dense detection encodings.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// A binary max-heap over variables ordered by VSIDS activity, with a
/// position index for O(log n) re-heapification when an activity is bumped.
///
/// Removal is lazy: variables stay in the heap when assigned, and
/// backtracking re-inserts the unassigned ones, so every unassigned
/// variable is always in it. `pick_branch` skips (and drops) assigned ones
/// at [`OrderHeap::pop_max`] time.
/// Ties in activity break towards the lower variable index, so the order
/// is strict and total, and decisions are fully deterministic.
#[derive(Debug, Clone, Default)]
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

/// Statistics accumulated during solving.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts analysed.
    pub conflicts: u64,
    /// Number of restarts executed.
    pub restarts: u64,
    /// Number of learnt clauses deleted.
    pub deleted: u64,
    /// Number of arena compactions performed.
    pub compactions: u64,
}

/// A CDCL SAT solver.
///
/// The solver owns all of its state (no shared-memory interior), so it is
/// `Send` (pinned below): it can be built on one thread and solved on
/// another. It is *not* concurrency-safe (`&mut` access only); parallelism
/// is the callers' business, one solver per worker at a time.
///
/// Cloning copies the whole search state (clause database, learnt
/// clauses, activities, saved phases and statistics), so a clone answers
/// every later query exactly as its original would.
///
/// # Examples
///
/// ```
/// use atropos_sat::{Solver, Var};
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
    arena: Arena,
    /// Live original clauses, in insertion order.
    clauses: Vec<ClauseRef>,
    /// Live learnt clauses, in learning order.
    learnts: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>, // indexed by Lit::index
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    phase: Vec<bool>,
    order: OrderHeap, // VSIDS order heap (assigned vars leave it lazily)
    unsat: bool,
    stats: SolverStats,
    seen: Vec<bool>,
    failed: Vec<Lit>,
    /// Root-trail length the last `simplify` ran at (skip when unchanged).
    simplified_at: usize,
    /// Scratch for conflict analysis (avoids a per-conflict allocation).
    analyze_scratch: Vec<Lit>,
    /// The clauses the current conflict analysis resolved (proofs on).
    ante_scratch: Vec<ClauseCode>,
    /// The core record; `None` (the default) keeps no proof at all.
    proof: Option<Box<CoreLog>>,
}

// Any non-Send field added to the solver stack should fail compilation
// here, not at a caller that moves a solver between threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Solver>();
    assert_send::<SolveResult>();
};

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f32 = 0.999;
const RESCALE: f64 = 1e100;
/// Clause activities are `f32` (they live in one arena word), so they
/// rescale at a much lower threshold than the `f64` variable activities.
const CLA_RESCALE: f32 = 1e20;
/// Compact the arena when at least this fraction of it is garbage.
const COMPACT_WASTE: f64 = 0.25;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: Arena::default(),
            clauses: Vec::new(),
            learnts: Vec::new(),
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
            simplified_at: 0,
            analyze_scratch: Vec::new(),
            ante_scratch: Vec::new(),
            proof: None,
        }
    }

    /// Creates an empty solver that keeps a core record, so every UNSAT
    /// answer can name the clauses its refutation reaches
    /// ([`Solver::refutation`]). Proof logging is chosen here, at
    /// construction, because a clause attached without an input id could
    /// never be named — there is no switch to turn it on later:
    ///
    /// ```compile_fail
    /// let mut s = atropos_sat::Solver::new();
    /// s.set_proof_logging(true);
    /// ```
    pub fn with_proofs() -> Solver {
        Solver {
            proof: Some(Box::default()),
            ..Solver::new()
        }
    }

    /// Whether proof logging is on.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// The core of the most recent UNSAT answer: the input clauses its
    /// refutation reaches, as given and in input order, then the lemmas
    /// it reaches, in learning order. Each lemma is RUP over the inputs
    /// plus the lemmas before it, and the failed assumptions (or, with
    /// none, the empty clause) are RUP over the whole core. Empty when
    /// proofs are off or the last answer was SAT.
    pub fn refutation(&self) -> Vec<ProofEvent> {
        self.proof
            .as_ref()
            .map_or_else(Vec::new, |log| log.refutation())
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
        if let Some(log) = self.proof.as_mut() {
            log.root_reason.push(NO_CLAUSE);
        }
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

    /// Number of *live* clauses currently stored (original plus retained
    /// learnt). Clauses that [`Solver::simplify`] removed because the root
    /// level already satisfies them are not counted — they are logically
    /// gone, and reporting them would overstate the working set.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() + self.learnts.len()
    }

    /// After [`Solver::solve_with_assumptions`] returns
    /// [`SolveResult::Unsat`], the subset of the assumption literals whose
    /// conjunction already contradicts the formula (the *failed-assumption
    /// core*). Empty when the formula is unsatisfiable on its own.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    #[inline]
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
        // A clause the root facts satisfy can take no part in any
        // refutation: it is neither stored nor named.
        if lits.iter().any(|&l| self.value(l) == LBool::True) {
            return;
        }
        // Name the clause as given (sorted, deduplicated) *before* the
        // root-falsified literals are stripped: a core must name clauses
        // of the problem formula, not of its current residue.
        let id = match self.proof.as_mut() {
            Some(log) => log.push_input(&lits),
            None => 0,
        };
        // Of the residue, an empty one refutes the formula, a unit becomes
        // a root fact, and anything longer is attached.
        lits.retain(|&l| self.value(l) != LBool::False);
        let code = clause_code(id, false);
        match lits.len() {
            0 => self.refute_at_root(code),
            1 => {
                if !self.enqueue(lits[0], None) {
                    self.refute_at_root(code);
                    return;
                }
                if let Some(log) = self.proof.as_mut() {
                    log.root_reason[lits[0].var().index()] = code;
                }
                if let Some(conflict) = self.propagate() {
                    let code = self.arena.code(conflict);
                    self.refute_at_root(code);
                }
            }
            _ => {
                self.attach(&lits, false, id);
            }
        }
    }

    /// Marks the formula itself unsatisfiable, `code` naming a clause the
    /// root facts falsify. The first refutation sticks: every later answer
    /// is UNSAT for the same reason.
    fn refute_at_root(&mut self, code: ClauseCode) {
        if self.unsat {
            return;
        }
        self.unsat = true;
        self.name_refutation(Seed::Clause(code));
    }

    /// Exports the stored problem: root facts as unit clauses, then every
    /// original (non-learnt) clause as currently simplified. Replaying the
    /// export into a fresh solver over the same variable allocation yields
    /// an equisatisfiable formula. Tests read it to see what the solver
    /// keeps: which literals a root unit strips from a clause, and that an
    /// encoding's root facts leave no stored clause mentioning them.
    pub fn problem_clauses(&self) -> Vec<Vec<Lit>> {
        debug_assert!(self.trail_lim.is_empty(), "export happens at the root");
        let mut out = Vec::new();
        for &l in &self.trail {
            out.push(vec![l]);
        }
        for &cref in &self.clauses {
            let len = self.arena.len(cref);
            out.push((0..len).map(|i| self.arena.lit(cref, i)).collect());
        }
        out
    }

    /// Attaches a clause of two or more literals; `id` is its input or
    /// lemma id in the core record (zero with proofs off).
    fn attach(&mut self, lits: &[Lit], learnt: bool, id: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt, id);
        self.watches[(!lits[0]).index()].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).index()].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.learnts.push(cref);
        } else {
            self.clauses.push(cref);
        }
        cref
    }

    /// Detaches the clause from its two watch lists and frees its record.
    fn remove_clause(&mut self, cref: ClauseRef) {
        let (l0, l1) = (self.arena.lit(cref, 0), self.arena.lit(cref, 1));
        self.watches[(!l0).index()].retain(|w| w.cref != cref);
        self.watches[(!l1).index()].retain(|w| w.cref != cref);
        self.arena.free(cref);
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
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                // Blocker fast path: the clause is satisfied; keep the
                // watcher without reading clause memory at all.
                if self.value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                // The false literal must be at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cref, 1), false_lit);
                let first = self.arena.lit(cref, 0);
                let keep = Watcher {
                    cref,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[j] = keep;
                    j += 1;
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let lk = self.arena.lit(cref, k);
                    if self.value(lk) != LBool::False {
                        self.arena.swap_lits(cref, 1, k);
                        self.watches[(!lk).index()].push(keep);
                        i += 1;
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[j] = keep;
                j += 1;
                if !self.enqueue(first, Some(cref)) {
                    // Conflict: preserve the unvisited tail of the list.
                    i += 1;
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[p.index()] = ws;
                    self.prop_head = self.trail.len();
                    return Some(cref);
                }
                i += 1;
            }
            ws.truncate(j);
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
        if !self.arena.is_learnt(cref) {
            return;
        }
        let act = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, act);
        if act > CLA_RESCALE {
            for idx in 0..self.learnts.len() {
                let c = self.learnts[idx];
                let a = self.arena.activity(c);
                self.arena.set_activity(c, a / CLA_RESCALE);
            }
            self.cla_inc /= CLA_RESCALE;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = std::mem::take(&mut self.analyze_scratch);
        learnt.clear();
        learnt.push(Lit::new(Var(0), true)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut idx = self.trail.len();
        let current = self.decision_level();

        loop {
            self.bump_clause(cref);
            if self.proof.is_some() {
                self.ante_scratch.push(self.arena.code(cref));
            }
            let len = self.arena.len(cref);
            let skip_first = usize::from(p.is_some());
            for k in skip_first..len {
                let q = self.arena.lit(cref, k);
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

    /// True if the clause is the reason of its first literal's assignment
    /// (such a clause must survive learnt-DB reduction).
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.arena.lit(cref, 0);
        self.assign[l0.var().index()] != LBool::Undef && self.reason[l0.var().index()] == Some(cref)
    }

    fn reduce_db(&mut self) {
        // Delete the lower-activity half of removable learnt clauses by
        // median split; surviving refs stay valid (deleted records are
        // marked garbage and reclaimed once enough of the arena is dead).
        let mut acts: Vec<f32> = self
            .learnts
            .iter()
            .filter(|&&c| self.arena.len(c) > 2)
            .map(|&c| self.arena.activity(c))
            .collect();
        if acts.len() < 2 {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).expect("activities are finite"));
        let median = acts[acts.len() / 2];

        let old = std::mem::take(&mut self.learnts);
        for cref in old {
            let keep = self.arena.len(cref) <= 2
                || self.arena.activity(cref) >= median
                || self.is_locked(cref);
            if keep {
                self.learnts.push(cref);
            } else {
                self.remove_clause(cref);
                self.stats.deleted += 1;
            }
        }
        self.maybe_compact();
    }

    /// Root-level simplification: with the solver at decision level 0,
    /// removes every clause the root assignment already satisfies (it can
    /// never participate in propagation or conflicts again) and clears the
    /// reason pointers of root facts (they are permanent; conflict
    /// analysis skips level 0; with proofs on, the core record keeps which
    /// clause forced each). Runs automatically at the start of every
    /// solve once new root facts have appeared; [`Solver::num_clauses`]
    /// only counts what survives.
    pub fn simplify(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "simplify runs at the root");
        if self.unsat || self.prop_head < self.trail.len() || self.trail.len() == self.simplified_at
        {
            return;
        }
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            if let Some(cref) = self.reason[v].take() {
                if let Some(log) = self.proof.as_mut() {
                    log.root_reason[v] = self.arena.code(cref);
                }
            }
        }
        for learnt_list in [true, false] {
            let old = std::mem::take(if learnt_list {
                &mut self.learnts
            } else {
                &mut self.clauses
            });
            let mut kept = Vec::with_capacity(old.len());
            for cref in old {
                let len = self.arena.len(cref);
                let satisfied =
                    (0..len).any(|i| self.value(self.arena.lit(cref, i)) == LBool::True);
                if satisfied {
                    self.remove_clause(cref);
                } else {
                    kept.push(cref);
                }
            }
            *(if learnt_list {
                &mut self.learnts
            } else {
                &mut self.clauses
            }) = kept;
        }
        self.simplified_at = self.trail.len();
        self.maybe_compact();
    }

    /// Rebuilds the arena without its garbage records when fragmentation
    /// passes the threshold, remapping clause lists, watcher lists, and
    /// reason pointers through the relocation table.
    fn maybe_compact(&mut self) {
        if self.arena.wasted == 0 || self.arena.wasted_ratio() < COMPACT_WASTE {
            return;
        }
        let mut to: Vec<u32> = Vec::with_capacity(self.arena.data.len() - self.arena.wasted);
        for i in 0..self.clauses.len() {
            let cref = self.clauses[i];
            self.arena.relocate(cref, &mut to);
            self.clauses[i] = self.arena.forward(cref);
        }
        for i in 0..self.learnts.len() {
            let cref = self.learnts[i];
            self.arena.relocate(cref, &mut to);
            self.learnts[i] = self.arena.forward(cref);
        }
        for list in &mut self.watches {
            for w in list.iter_mut() {
                w.cref = self.arena.forward(w.cref);
            }
        }
        for r in &mut self.reason {
            *r = r.map(|cref| self.arena.forward(cref));
        }
        self.arena.data = to;
        self.arena.wasted = 0;
        self.stats.compactions += 1;
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
                    for k in 1..self.arena.len(cref) {
                        let l = self.arena.lit(cref, k);
                        if self.level[l.var().index()] > 0 {
                            self.seen[l.var().index()] = true;
                        }
                    }
                }
            }
        }
        self.seen[p.var().index()] = false;
    }

    /// Records a learnt clause in the core record together with the
    /// clauses its analysis resolved and the root facts that falsify
    /// literals of those clauses (analysis skips them; a checker needs
    /// them). Returns the lemma id, zero with proofs off.
    fn record_lemma(&mut self, learnt: &[Lit]) -> u32 {
        let mut ante = std::mem::take(&mut self.ante_scratch);
        let Some(log) = self.proof.as_mut() else {
            return 0;
        };
        let mut roots = Vec::new();
        for &code in &ante {
            for &l in log.lits(code) {
                let v = l.var().index();
                if self.level[v] == 0 && self.assign[v] != LBool::Undef && !self.seen[v] {
                    self.seen[v] = true;
                    roots.push(l.var());
                }
            }
        }
        for v in &roots {
            self.seen[v.index()] = false;
        }
        let id = log.push_lemma(learnt, &ante, &roots);
        ante.clear();
        self.ante_scratch = ante;
        id
    }

    /// Marks `v` for a core walk; a root fact also goes onto `roots`.
    fn mark_for_core(&mut self, v: Var, roots: &mut Vec<Var>) {
        if !self.seen[v.index()] {
            self.seen[v.index()] = true;
            if self.level[v.index()] == 0 {
                roots.push(v);
            }
        }
    }

    /// Walks the implication graph back from `seed` through the levels
    /// above the root, as [`Solver::analyze_final`] does: every reason
    /// clause met goes onto `ante`, every root fact met stays marked in
    /// `seen` and goes onto `roots`. Decisions (the assumptions) end their
    /// branch.
    fn walk_above_root(
        &mut self,
        log: &CoreLog,
        seed: Seed,
        ante: &mut Vec<ClauseCode>,
        roots: &mut Vec<Var>,
    ) {
        match seed {
            Seed::Lit(l) => self.mark_for_core(l.var(), roots),
            Seed::Clause(code) => {
                ante.push(code);
                for &l in log.lits(code) {
                    self.mark_for_core(l.var(), roots);
                }
            }
        }
        let Some(&bottom) = self.trail_lim.first() else {
            return;
        };
        for i in (bottom..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !self.seen[v.index()] {
                continue;
            }
            self.seen[v.index()] = false;
            if let Some(cref) = self.reason[v.index()] {
                let code = self.arena.code(cref);
                ante.push(code);
                // The clause as given: literals stripped when it was added
                // were root facts then, and the checker needs them too.
                for &l in log.lits(code) {
                    if l.var() != v {
                        self.mark_for_core(l.var(), roots);
                    }
                }
            }
        }
    }

    /// Names the core of the current UNSAT answer in the core record:
    /// walk back from `seed` above the root, then down the root trail
    /// through the clause behind each root fact, closing over every
    /// lemma's antecedents. A no-op with proofs off.
    fn name_refutation(&mut self, seed: Seed) {
        let Some(mut log) = self.proof.take() else {
            return;
        };
        let (mut ante, mut roots) = (Vec::new(), Vec::new());
        self.walk_above_root(&log, seed, &mut ante, &mut roots);
        let mut walk = CoreWalk::new(log.num_lemmas());
        for code in ante {
            walk.reach(code);
        }
        walk.close(&log, &mut self.seen);
        // Root facts are visited latest first; everything a root fact rests
        // on was assigned before it, so one backward pass marks it in time.
        let bottom = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for i in (0..bottom).rev() {
            let v = self.trail[i].var();
            if !self.seen[v.index()] {
                continue;
            }
            self.seen[v.index()] = false;
            let code = match self.reason[v.index()] {
                Some(cref) => self.arena.code(cref),
                None => log.root_reason[v.index()],
            };
            debug_assert_ne!(code, NO_CLAUSE, "every root fact has a recorded reason");
            walk.reach(code);
            walk.close(&log, &mut self.seen);
            for &l in log.lits(code) {
                if l.var() != v {
                    self.seen[l.var().index()] = true;
                }
            }
        }
        debug_assert!(self.seen.iter().all(|&s| !s), "a core walk left a mark");
        log.core = walk.finish();
        self.proof = Some(log);
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
            // The root refutation named when the formula fell stays the core.
            return SolveResult::Unsat;
        }
        if let Some(log) = self.proof.as_mut() {
            log.core.clear();
        }
        self.backtrack(0);
        // Re-run root propagation: clauses added since the last call may
        // have enqueued new root facts.
        if let Some(conflict) = self.propagate() {
            let code = self.arena.code(conflict);
            self.refute_at_root(code);
            return SolveResult::Unsat;
        }
        // Drop clauses the accumulated root facts already satisfy.
        self.simplify();
        let mut conflicts_until_restart = luby(self.stats.restarts) * 100;
        // Budget learnt clauses against the *original* clause count so the
        // limit does not creep upwards across incremental calls.
        let mut learnt_limit = (self.clauses.len() / 3).max(2000);
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    let code = self.arena.code(conflict);
                    self.refute_at_root(code);
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(conflict);
                // First-UIP clauses are RUP over the clauses they were
                // resolved from plus the root facts analysis skipped, so
                // the lemma is recorded with exactly those antecedents.
                let id = self.record_lemma(&learnt);
                self.backtrack(bt);
                if learnt.len() == 1 {
                    let ok = self.enqueue(learnt[0], None);
                    debug_assert!(ok, "asserting literal must be enqueueable");
                    if let Some(log) = self.proof.as_mut() {
                        log.root_reason[learnt[0].var().index()] = clause_code(id, true);
                    }
                } else {
                    let cref = self.attach(&learnt, true, id);
                    self.bump_clause(cref);
                    let ok = self.enqueue(learnt[0], Some(cref));
                    debug_assert!(ok, "asserting literal must be enqueueable");
                }
                self.analyze_scratch = learnt;
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    conflicts_until_restart = luby(self.stats.restarts) * 100;
                    self.backtrack(0);
                }
                if self.learnts.len() > learnt_limit {
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
                            self.name_refutation(Seed::Lit(p));
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
                            let model = self.assign.iter().map(|&a| a == LBool::True).collect();
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

/// Where a core walk starts.
#[derive(Debug, Clone, Copy)]
enum Seed {
    /// An assigned literal to explain: a failed assumption.
    Lit(Lit),
    /// A clause whose every literal is false.
    Clause(ClauseCode),
}

/// The clauses a core walk has reached so far.
struct CoreWalk {
    inputs: Vec<ClauseCode>,
    lemmas: Vec<bool>,
    /// Reached lemmas whose antecedents are not reached yet.
    open: Vec<usize>,
}

impl CoreWalk {
    fn new(num_lemmas: usize) -> CoreWalk {
        CoreWalk {
            inputs: Vec::new(),
            lemmas: vec![false; num_lemmas],
            open: Vec::new(),
        }
    }

    fn reach(&mut self, code: ClauseCode) {
        let id = (code >> 1) as usize;
        if code & 1 == 0 {
            self.inputs.push(code);
        } else if !self.lemmas[id] {
            self.lemmas[id] = true;
            self.open.push(id);
        }
    }

    /// Reaches the antecedents of every open lemma, transitively, and
    /// marks the root facts they rest on in `seen`.
    fn close(&mut self, log: &CoreLog, seen: &mut [bool]) {
        while let Some(id) = self.open.pop() {
            for &code in log.antecedents(id) {
                self.reach(code);
            }
            for v in log.root_facts(id) {
                seen[v.index()] = true;
            }
        }
    }

    /// The core: input codes ascending, then lemma codes ascending.
    fn finish(mut self) -> Vec<ClauseCode> {
        self.inputs.sort_unstable();
        self.inputs.dedup();
        let lemmas = self.lemmas.iter().enumerate().filter(|(_, &r)| r);
        self.inputs
            .into_iter()
            .chain(lemmas.map(|(id, _)| clause_code(id as u32, true)))
            .collect()
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
    /// learnt clauses) after moving to another and back.
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

    /// The satellite fix: `num_clauses` must report *live* clauses. A
    /// clause satisfied by root facts that arrive only after it was added
    /// is logically removed by `simplify` and must disappear from the
    /// count.
    #[test]
    fn num_clauses_reports_live_clauses_after_simplify() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0].positive(), v[1].positive()]);
        s.add_clause([v[0].positive(), v[2].positive()]);
        s.add_clause([v[1].positive(), v[2].negative()]);
        assert_eq!(s.num_clauses(), 3);
        // A later unit satisfies the first two clauses; before the next
        // solve they are still stored...
        s.add_clause([v[0].positive()]);
        assert_eq!(s.num_clauses(), 3);
        assert!(s.solve().is_sat());
        // ...but the solve's root simplification drops them (and only
        // them: the third clause mentions no root-true literal).
        assert_eq!(s.num_clauses(), 1);
        // Explicit simplify with nothing new to do is a no-op.
        s.simplify();
        assert_eq!(s.num_clauses(), 1);
        // Verdicts are unaffected.
        assert!(s.solve_with_assumptions(&[v[2].positive()]).is_sat());
        assert!(!s
            .solve_with_assumptions(&[v[1].negative(), v[2].positive()])
            .is_sat());
    }

    /// Arena compaction: force heavy learnt-clause deletion and check the
    /// solver keeps answering correctly afterwards (refs, watches, and
    /// reasons all survive relocation).
    #[test]
    fn compaction_preserves_verdicts_under_heavy_learning() {
        let mut s = Solver::new();
        // A guarded PHP(7, 6) produces thousands of learnt clauses.
        let act = s.new_var();
        let at: Vec<Vec<Var>> = (0..7)
            .map(|_| (0..6).map(|_| s.new_var()).collect())
            .collect();
        for row in &at {
            let mut c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            c.push(act.negative());
            s.add_clause(c);
        }
        for h in 0..6 {
            for p1 in 0..7 {
                for p2 in (p1 + 1)..7 {
                    s.add_clause([act.negative(), at[p1][h].negative(), at[p2][h].negative()]);
                }
            }
        }
        assert!(!s.solve_with_assumptions(&[act.positive()]).is_sat());
        assert!(s.solve_with_assumptions(&[act.negative()]).is_sat());
        // The same verdicts hold on a re-query (watch lists stayed exact).
        assert!(!s.solve_with_assumptions(&[act.positive()]).is_sat());
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
