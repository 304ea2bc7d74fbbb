//! Grounding bounded anomaly queries to CNF.
//!
//! For a candidate pair of transactions the detector instantiates two
//! transaction instances and grounds the paper's FOL anomaly formula over
//! their events: boolean variables encode the arbitration order `ord` over
//! command instances (total, antisymmetric, transitive) and the visibility
//! relation `vis` between atoms (command × record event groups) and
//! commands. The consistency level contributes its axioms; a pattern query
//! then asserts a serializability violation restricted to a specific pair of
//! commands, and the CDCL solver decides satisfiability — exactly the role
//! Z3 plays in the paper.
//!
//! The encoder emits program order as root facts before the transitivity
//! clauses they decide, on purpose: a solver then stores only what the root
//! assignment leaves open, and no clone of a never-solved solver deletes
//! those clauses again (see `encode_base`).
//!
//! Two solving paths share one encoder so their clause streams cannot
//! diverge:
//!
//! * [`pattern_satisfiable`] — the reference path: a fresh solver per
//!   query, with only the queried level's axioms, requirements asserted as
//!   unit clauses;
//! * [`PairSolver`] — the incremental path: the ordering/visibility matrix
//!   is encoded **once per transaction pair**, each non-trivial consistency
//!   level's axioms are installed as an activation-literal-guarded clause
//!   group, and every anomaly query is dispatched via
//!   `solve_with_assumptions` (the guard plus the requirement literals),
//!   retaining learnt clauses across queries.

use std::collections::HashMap;

use atropos_sat::{Lit, Solver, SolverStats};

use crate::model::{CmdSummary, KeySpec, TxnSummary};

/// The consistency level whose axioms constrain candidate executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConsistencyLevel {
    /// Eventual consistency: arbitrary consistent views (no axioms beyond
    /// session order and record-level atomicity).
    EventualConsistency,
    /// Causal consistency: visibility is transitively closed through the
    /// observer chain.
    CausalConsistency,
    /// Repeatable read: a transaction that has read a record cannot later
    /// gain visibility of new foreign writes to it.
    RepeatableRead,
    /// Full serializability: transaction instances execute as atomic blocks.
    Serializable,
}

impl ConsistencyLevel {
    /// All four levels, weakest first.
    pub const ALL: [ConsistencyLevel; 4] = [
        ConsistencyLevel::EventualConsistency,
        ConsistencyLevel::CausalConsistency,
        ConsistencyLevel::RepeatableRead,
        ConsistencyLevel::Serializable,
    ];

    /// Dense index (position in [`ConsistencyLevel::ALL`]) — also the
    /// stable serialization tag of the `verdict_cache.v2` format.
    pub(crate) fn index(self) -> usize {
        match self {
            ConsistencyLevel::EventualConsistency => 0,
            ConsistencyLevel::CausalConsistency => 1,
            ConsistencyLevel::RepeatableRead => 2,
            ConsistencyLevel::Serializable => 3,
        }
    }

    /// Inverse of [`ConsistencyLevel::index`].
    pub(crate) fn from_index(i: usize) -> Option<ConsistencyLevel> {
        ConsistencyLevel::ALL.get(i).copied()
    }
}

impl std::fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConsistencyLevel::EventualConsistency => "EC",
            ConsistencyLevel::CausalConsistency => "CC",
            ConsistencyLevel::RepeatableRead => "RR",
            ConsistencyLevel::Serializable => "SC",
        };
        f.write_str(s)
    }
}

/// A witness record: one equivalence class of records a command can touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessRecord {
    /// Schema the record belongs to.
    pub schema: String,
    /// Key class: canonical key expression, a scan placeholder, or a fresh
    /// insert token.
    pub class: String,
    /// True when the key is a tuple of literal constants.
    pub constant: bool,
    /// True when the record stems from a fresh-keyed insert.
    pub fresh: bool,
}

/// A command instance inside the bounded multi-instance model.
#[derive(Debug, Clone)]
pub struct InstCmd {
    /// Index of the transaction instance this command belongs to (0 and 1
    /// in the pair skeleton, 0–2 in the triple skeleton).
    pub instance: u8,
    /// The underlying static summary.
    pub summary: CmdSummary,
    /// Indices of witness records this command may touch.
    pub records: Vec<usize>,
}

/// An atom: the events one command instance produces on one witness record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstAtom {
    /// Command index in [`InstanceModel::cmds`].
    pub cmd: usize,
    /// Record index in [`InstanceModel::records`].
    pub record: usize,
}

/// The grounded bounded execution skeleton for a tuple of transaction
/// instances: two in the pair oracle ([`InstanceModel::new`]), three in the
/// triple oracle ([`InstanceModel::new_multi`]).
#[derive(Debug, Clone)]
pub struct InstanceModel {
    /// Command instances: instance 0's commands, then instance 1's, …
    pub cmds: Vec<InstCmd>,
    /// Number of commands in instance 0.
    pub n1: usize,
    /// Command-index offset of each instance, plus the total command count
    /// as a final sentinel (so instance `i` spans `starts[i]..starts[i+1]`).
    pub starts: Vec<usize>,
    /// Witness records.
    pub records: Vec<WitnessRecord>,
    /// Atoms, one per (command, touched record).
    pub atoms: Vec<InstAtom>,
    atom_index: HashMap<(usize, usize), usize>,
}

impl InstanceModel {
    /// Builds the two-instance model for `t1` and `t2` (which may be the
    /// same transaction, yielding two instances of it).
    pub fn new(t1: &TxnSummary, t2: &TxnSummary) -> InstanceModel {
        InstanceModel::new_multi(&[t1, t2])
    }

    /// Builds the bounded skeleton over an arbitrary tuple of transaction
    /// instances (repetition allowed). The encoding and the per-level
    /// axioms are instance-count generic; only the violation templates fix
    /// a bound (two for the pair oracle, three for the triple oracle).
    pub fn new_multi(ts: &[&TxnSummary]) -> InstanceModel {
        assert!(
            (1..=u8::MAX as usize).contains(&ts.len()),
            "instance count out of range"
        );
        // Witness records: one per (schema, canonical key) class across all
        // instances, a scan placeholder per schema that is only scanned, and
        // one fresh record per fresh-keyed insert instance.
        let mut records: Vec<WitnessRecord> = Vec::new();
        let mut record_idx = HashMap::new();
        let mut raw: Vec<(u8, CmdSummary)> = Vec::new();
        let mut starts = Vec::with_capacity(ts.len() + 1);
        for (inst, t) in ts.iter().enumerate() {
            starts.push(raw.len());
            raw.extend(t.commands.iter().cloned().map(|s| (inst as u8, s)));
        }
        starts.push(raw.len());

        for (_, c) in &raw {
            if let KeySpec::Keyed { key: k, constant } = &c.key {
                let key = (c.schema.clone(), k.clone());
                let constant = *constant;
                record_idx.entry(key.clone()).or_insert_with(|| {
                    records.push(WitnessRecord {
                        schema: key.0.clone(),
                        class: key.1.clone(),
                        constant,
                        fresh: false,
                    });
                    records.len() - 1
                });
            }
        }
        // Scan placeholder for schemas with no keyed class.
        for (_, c) in &raw {
            if c.key == KeySpec::Scan {
                let key = (c.schema.clone(), "*".to_owned());
                if !records
                    .iter()
                    .any(|r| r.schema == c.schema && r.class != "fresh")
                {
                    record_idx.entry(key.clone()).or_insert_with(|| {
                        records.push(WitnessRecord {
                            schema: key.0.clone(),
                            class: "*".to_owned(),
                            constant: false,
                            fresh: false,
                        });
                        records.len() - 1
                    });
                }
            }
        }
        // Fresh records per fresh insert instance.
        let mut fresh_of: HashMap<usize, usize> = HashMap::new();
        for (i, (_, c)) in raw.iter().enumerate() {
            if c.key == KeySpec::Fresh {
                records.push(WitnessRecord {
                    schema: c.schema.clone(),
                    class: format!("fresh#{i}"),
                    constant: false,
                    fresh: true,
                });
                fresh_of.insert(i, records.len() - 1);
            }
        }

        let n1 = starts.get(1).copied().unwrap_or(raw.len());
        let mut cmds = Vec::with_capacity(raw.len());
        for (i, (instance, summary)) in raw.into_iter().enumerate() {
            let recs: Vec<usize> = match &summary.key {
                KeySpec::Keyed { key: k, .. } => {
                    vec![record_idx[&(summary.schema.clone(), k.clone())]]
                }
                KeySpec::Fresh => vec![fresh_of[&i]],
                KeySpec::Scan => records
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.schema == summary.schema)
                    .map(|(ri, _)| ri)
                    .collect(),
            };
            cmds.push(InstCmd {
                instance,
                summary,
                records: recs,
            });
        }

        let mut atoms = Vec::new();
        let mut atom_index = HashMap::new();
        for (ci, c) in cmds.iter().enumerate() {
            for &r in &c.records {
                atom_index.insert((ci, r), atoms.len());
                atoms.push(InstAtom { cmd: ci, record: r });
            }
        }
        InstanceModel {
            cmds,
            n1,
            starts,
            records,
            atoms,
            atom_index,
        }
    }

    /// Number of transaction instances this model was grounded over.
    pub fn instances(&self) -> usize {
        self.starts.len() - 1
    }

    /// Global command index of instance `inst`'s `local`-th command.
    pub fn cmd_index(&self, inst: usize, local: usize) -> usize {
        debug_assert!(local < self.starts[inst + 1] - self.starts[inst]);
        self.starts[inst] + local
    }

    /// Index of the atom for command `cmd` on record `record`, if the
    /// command touches that record.
    pub fn atom(&self, cmd: usize, record: usize) -> Option<usize> {
        self.atom_index.get(&(cmd, record)).copied()
    }

    /// May two witness records denote the same physical record? Records of
    /// different schemas never alias; fresh records alias nothing but
    /// themselves; two constant keys alias only when equal; everything else
    /// may collide at runtime.
    pub fn may_alias_records(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let (ra, rb) = (&self.records[a], &self.records[b]);
        if ra.schema != rb.schema || ra.fresh || rb.fresh {
            return false;
        }
        !(ra.constant && rb.constant && ra.class != rb.class)
    }

    fn same_instance(&self, a: usize, b: usize) -> bool {
        self.cmds[a].instance == self.cmds[b].instance
    }

    pub(crate) fn prog_before(&self, a: usize, b: usize) -> bool {
        self.same_instance(a, b) && self.cmds[a].summary.prog_index < self.cmds[b].summary.prog_index
    }

    fn touches(&self, cmd: usize, record: usize) -> bool {
        self.cmds[cmd].records.contains(&record)
    }
}

/// A visibility requirement of a pattern query: atom, observing command,
/// and required polarity.
pub type VisRequirement = (usize, usize, bool);

/// The decoded truth assignment of one satisfying anomaly witness: the
/// complete arbitration order and visibility relation the solver's model
/// assigns to a dirty query. This is the static schedule the replay
/// pipeline ([`crate::replay`]) turns into a concrete simulator run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessTruth {
    /// `ord[i][j]`: command instance `i` is arbitrated before `j` (the
    /// diagonal reads `false`). Total and transitive by the base encoding.
    pub ord: Vec<Vec<bool>>,
    /// `vis[a][c]`: atom `a` is visible to command `c`.
    pub vis: Vec<Vec<bool>>,
}

impl WitnessTruth {
    /// Position of command `c` in the arbitration total order: the number
    /// of commands arbitrated before it.
    pub fn arbitration_position(&self, c: usize) -> usize {
        (0..self.ord.len()).filter(|&j| self.ord[j][c]).count()
    }
}

/// The ord/vis literal layout produced by [`encode_base`].
#[derive(Clone)]
struct PairEncoding {
    /// `ord[i][j]`: "command i is arbitrated before command j" (None on the
    /// diagonal).
    ord: Vec<Vec<Option<Lit>>>,
    /// `vis[a][c]`: "atom a is visible to command c".
    vis: Vec<Vec<Lit>>,
}

impl PairEncoding {
    fn ord(&self, i: usize, j: usize) -> Lit {
        self.ord[i][j].expect("i != j")
    }
}

fn fresh(s: &mut Solver) -> Lit {
    s.new_var().positive()
}

/// Adds `lits` as a clause, weakened by `¬guard` when a guard is present —
/// so the clause only bites while the guard literal is assumed.
fn emit(s: &mut Solver, guard: Option<Lit>, lits: impl IntoIterator<Item = Lit>) {
    match guard {
        None => s.add_clause(lits),
        Some(g) => {
            let mut c: Vec<Lit> = lits.into_iter().collect();
            c.push(!g);
            s.add_clause(c);
        }
    }
}

/// Encodes the level-independent skeleton: the total arbitration order
/// (antisymmetric by construction, containing each instance's program
/// order, transitive by clauses), the visibility variables with the
/// session guarantee, and visibility-implies-arbitration.
///
/// Program order is emitted as root facts *before* the transitivity
/// clauses, so the solver never stores a clause those facts satisfy nor a
/// literal they falsify. Every clause the solver keeps mentions only
/// variables the root assignment leaves open, and root simplification
/// has nothing left to delete. A certificate's core still names every
/// clause as given.
fn encode_base(s: &mut Solver, model: &InstanceModel) -> PairEncoding {
    let n = model.cmds.len();
    // ord[i][j] (i < j): literal meaning "i is arbitrated before j".
    let mut ord: Vec<Vec<Option<Lit>>> = vec![vec![None; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let l = fresh(s);
            ord[i][j] = Some(l);
            ord[j][i] = Some(!l);
        }
    }
    let ord_lit = |i: usize, j: usize| ord[i][j].expect("i != j");

    // Program order within each instance: root facts, first on purpose
    // (see above).
    for i in 0..n {
        for j in 0..n {
            if i != j && model.prog_before(i, j) {
                s.add_clause([ord_lit(i, j)]);
            }
        }
    }
    // Transitivity. Because ord(j, i) is the same literal as ¬ord(i, j),
    // the six permutations of a triple collapse to two distinct clauses —
    // one per forbidden 3-cycle orientation — so emitting them once per
    // unordered triple {i < j < k} cuts the dominant clause group to a
    // third without weakening the encoding. After the program-order facts
    // a triple inside one instance stores neither clause, and a triple
    // with two commands in one instance stores at most one, without their
    // literal.
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                s.add_clause([!ord_lit(i, j), !ord_lit(j, k), ord_lit(i, k)]);
                s.add_clause([ord_lit(i, j), ord_lit(j, k), !ord_lit(i, k)]);
            }
        }
    }

    // vis[a][c] variables.
    let mut vis = vec![Vec::with_capacity(n); model.atoms.len()];
    for (ai, atom) in model.atoms.iter().enumerate() {
        for c in 0..n {
            let l = fresh(s);
            vis[ai].push(l);
            let producer = atom.cmd;
            if producer == c {
                // A command's view predates its own events.
                s.add_clause([!l]);
            } else if model.same_instance(producer, c) {
                // Session guarantee: a transaction sees its own effects.
                if model.prog_before(producer, c) {
                    s.add_clause([l]);
                } else {
                    s.add_clause([!l]);
                }
            } else {
                // Visibility implies arbitration order.
                s.add_clause([!l, ord_lit(producer, c)]);
            }
        }
    }
    PairEncoding { ord, vis }
}

/// Encodes the axioms of one consistency level on top of [`encode_base`],
/// optionally guarded by an activation literal (the incremental path).
fn encode_level(
    s: &mut Solver,
    model: &InstanceModel,
    enc: &PairEncoding,
    level: ConsistencyLevel,
    guard: Option<Lit>,
) {
    let n = model.cmds.len();
    let na = model.atoms.len();
    match level {
        ConsistencyLevel::EventualConsistency => {}
        ConsistencyLevel::CausalConsistency => {
            // (1) vis(b, c') ∧ vis(a_{c'}, c) ⇒ vis(b, c): visibility is
            // closed under the observer chain.
            for bi in 0..na {
                for cp in 0..n {
                    if model.atoms[bi].cmd == cp {
                        continue;
                    }
                    for (ai, a) in model.atoms.iter().enumerate() {
                        if a.cmd != cp {
                            continue;
                        }
                        for c in 0..n {
                            if c == cp || model.atoms[bi].cmd == c {
                                continue;
                            }
                            emit(
                                s,
                                guard,
                                [!enc.vis[bi][cp], !enc.vis[ai][c], enc.vis[bi][c]],
                            );
                        }
                    }
                }
            }
            // (2) Writer-session closure: a session's earlier effects are
            // causally before its later ones, so observing the later atom
            // forces the earlier one — vis(a, c) ⇒ vis(b, c) when
            // producer(b) precedes producer(a) in the same instance.
            for ai in 0..na {
                for bi in 0..na {
                    let (pa, pb) = (model.atoms[ai].cmd, model.atoms[bi].cmd);
                    if !model.prog_before(pb, pa) {
                        continue;
                    }
                    for c in 0..n {
                        if model.same_instance(pa, c) {
                            continue;
                        }
                        emit(s, guard, [!enc.vis[ai][c], enc.vis[bi][c]]);
                    }
                }
            }
            // (3) Monotonic reads: a session's causal past only grows —
            // vis(a, c1) ⇒ vis(a, c2) for c1 preceding c2 in one instance.
            for (ai, atom) in model.atoms.iter().enumerate() {
                for c1 in 0..n {
                    if model.same_instance(atom.cmd, c1) {
                        continue;
                    }
                    for c2 in 0..n {
                        if c2 == c1 || !model.prog_before(c1, c2) {
                            continue;
                        }
                        emit(s, guard, [!enc.vis[ai][c1], enc.vis[ai][c2]]);
                    }
                }
            }
        }
        ConsistencyLevel::RepeatableRead => {
            // Reads of a record are stable for the rest of the transaction:
            // once command c1 of an instance has accessed record(a), later
            // commands c2 observe exactly the foreign atoms on that record
            // that c1 observed — no new visibility (backward implication)
            // and no retraction (forward implication).
            for (ai, atom) in model.atoms.iter().enumerate() {
                for c1 in 0..n {
                    if model.same_instance(atom.cmd, c1) {
                        continue;
                    }
                    if !model.touches(c1, atom.record) {
                        continue;
                    }
                    for c2 in 0..n {
                        if c2 == c1 || !model.prog_before(c1, c2) {
                            continue;
                        }
                        emit(s, guard, [!enc.vis[ai][c2], enc.vis[ai][c1]]);
                        emit(s, guard, [!enc.vis[ai][c1], enc.vis[ai][c2]]);
                    }
                }
            }
        }
        ConsistencyLevel::Serializable => {
            // Whole-transaction blocks: one literal per unordered instance
            // pair {a < b}, blk[a][b] ⇔ instance a runs entirely before
            // instance b. Ord transitivity makes the block relation a total
            // order of the instances (a cyclic assignment of the blk
            // literals forces a cyclic ord triangle, which is
            // unsatisfiable), so for two instances this degenerates to the
            // single "instance 0 runs first" literal of the pair encoding —
            // same variable count, same clause stream.
            let k = model.instances();
            let mut blk = vec![vec![None; k]; k];
            for a in 0..k {
                for b in (a + 1)..k {
                    blk[a][b] = Some(fresh(s));
                }
            }
            for i in 0..n {
                for j in 0..n {
                    if i == j || model.same_instance(i, j) {
                        continue;
                    }
                    let (a, b) = (
                        model.cmds[i].instance as usize,
                        model.cmds[j].instance as usize,
                    );
                    if a < b {
                        let g = blk[a][b].expect("a < b");
                        let l = enc.ord(i, j);
                        emit(s, guard, [!g, l]);
                        emit(s, guard, [g, !l]);
                    }
                }
            }
            for (ai, atom) in model.atoms.iter().enumerate() {
                for c in 0..n {
                    if model.same_instance(atom.cmd, c) {
                        continue;
                    }
                    let l = enc.vis[ai][c];
                    let (pa, pc) = (
                        model.cmds[atom.cmd].instance as usize,
                        model.cmds[c].instance as usize,
                    );
                    if pa < pc {
                        let g = blk[pa][pc].expect("pa < pc");
                        emit(s, guard, [!g, l]);
                        emit(s, guard, [g, !l]);
                    } else {
                        let g = blk[pc][pa].expect("pc < pa");
                        emit(s, guard, [!g, !l]);
                        emit(s, guard, [g, l]);
                    }
                }
            }
        }
    }
}

/// Decides whether an execution satisfying `requirements` exists under the
/// axioms of `level` — i.e., whether the candidate anomaly is realizable.
///
/// This is the reference path: it constructs a fresh solver per query. The
/// production detector uses [`PairSolver`], which must return identical
/// verdicts (enforced by the `incremental_vs_fresh` differential suite).
pub fn pattern_satisfiable(
    model: &InstanceModel,
    level: ConsistencyLevel,
    requirements: &[VisRequirement],
) -> bool {
    fresh_query(model, level, requirements).0
}

/// The fresh path with instrumentation: verdict, this query's solver
/// statistics, and the number of clauses the fresh encoding emitted.
pub(crate) fn fresh_query(
    model: &InstanceModel,
    level: ConsistencyLevel,
    requirements: &[VisRequirement],
) -> (bool, SolverStats, usize) {
    let mut s = Solver::new();
    let enc = encode_base(&mut s, model);
    encode_level(&mut s, model, &enc, level, None);
    for &(a, c, polarity) in requirements {
        let l = enc.vis[a][c];
        s.add_clause([if polarity { l } else { !l }]);
    }
    let sat = s.solve().is_sat();
    (sat, s.stats(), s.num_clauses())
}

/// An incremental anomaly oracle for one transaction pair.
///
/// The base ordering/visibility encoding is built once; the axioms of each
/// non-trivial consistency level form an activation-literal-guarded clause
/// group. A query assumes the queried level's guard plus the requirement
/// literals, so the solver retains its clause database (including learnt
/// clauses) across all patterns and levels.
///
/// The solver does **not** retain its [`InstanceModel`] — callers that keep
/// a `PairSolver` alive (a [`crate::DetectSession`] retains
/// them across refactoring steps) keep the model alongside it and pass the
/// same model back into [`PairSolver::satisfiable`], which needs it only
/// when a consistency level's axiom group is installed on first query.
///
/// A clone is an independent solver in the identical state; the
/// [`crate::replay::WitnessDecoder`] encodes a tuple once and runs each
/// witness search on a clone.
#[derive(Clone)]
pub struct PairSolver {
    solver: Solver,
    enc: PairEncoding,
    /// Activation literal per level group, allocated when the level is
    /// first queried (None for EC, which adds no axioms).
    guards: [Option<Lit>; 4],
    built: [bool; 4],
    /// Clauses in the shared encoding: base skeleton plus built groups.
    base_clauses: usize,
    level_clauses: [usize; 4],
    /// Certificates of UNSAT queries since the last
    /// [`PairSolver::take_certificates`], in query order. Each blob is the
    /// core the solver names for the query plus the failed-core trailer,
    /// encoded in the `atropos_proof` binary format.
    pending: Vec<Vec<u8>>,
}

// Retained pair solvers travel between the detection engine's workers via
// the sharded retention map; `PairSolver` (and the model it is grounded
// from) must therefore stay `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<PairSolver>();
    assert_send::<InstanceModel>();
};

impl PairSolver {
    /// Builds the level-independent encoding for `model`; each level's
    /// axiom group is added lazily on first query.
    pub fn new(model: &InstanceModel) -> PairSolver {
        PairSolver::with_proofs(model, false)
    }

    /// Like [`PairSolver::new`], but with `proofs` on the solver keeps a
    /// core record and each UNSAT query yields a certificate blob
    /// (collected via [`PairSolver::take_certificates`]) that the
    /// independent `atropos_proof` checker accepts: the input clauses and
    /// lemmas its refutation reaches, plus the failed-core trailer.
    pub fn with_proofs(model: &InstanceModel, proofs: bool) -> PairSolver {
        let mut solver = if proofs {
            Solver::with_proofs()
        } else {
            Solver::new()
        };
        let enc = encode_base(&mut solver, model);
        // Reach the root state the first solve would, so clones start
        // there instead of each simplifying again.
        solver.simplify();
        let base_clauses = solver.num_clauses();
        PairSolver {
            solver,
            enc,
            guards: [None; 4],
            built: [false; 4],
            base_clauses,
            level_clauses: [0usize; 4],
            pending: Vec::new(),
        }
    }

    /// Drains the certificates captured since the last call, in query
    /// order. Empty unless the solver was built via
    /// [`PairSolver::with_proofs`] and answered at least one query UNSAT.
    pub fn take_certificates(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.pending)
    }

    /// Dispatches one assumption query, capturing a certificate on UNSAT
    /// when proof logging is on — the single solve path shared by
    /// [`PairSolver::satisfiable`] and [`PairSolver::witness`].
    fn solve(&mut self, assumptions: &[Lit]) -> atropos_sat::SolveResult {
        let result = self.solver.solve_with_assumptions(assumptions);
        if self.solver.proof_logging() && !result.is_sat() {
            let blob = crate::certify::certificate_blob(
                &self.solver.refutation(),
                self.solver.failed_assumptions(),
            );
            self.pending.push(blob);
        }
        result
    }

    /// Installs `level`'s guarded axiom group if it is not present yet
    /// (a query does so itself; the witness decoder installs it before
    /// cloning, so its clones skip the encoding).
    pub(crate) fn ensure_level(&mut self, model: &InstanceModel, level: ConsistencyLevel) {
        let idx = level.index();
        if self.built[idx] {
            return;
        }
        self.built[idx] = true;
        if level == ConsistencyLevel::EventualConsistency {
            return;
        }
        let before = self.solver.num_clauses();
        let g = fresh(&mut self.solver);
        encode_level(&mut self.solver, model, &self.enc, level, Some(g));
        self.guards[idx] = Some(g);
        self.level_clauses[idx] = self.solver.num_clauses() - before;
    }

    /// Decides one pattern query under `level` via assumptions: the
    /// level's guard on, every other installed guard off (so inactive
    /// groups are satisfied by unit propagation, not search), plus the
    /// requirement literals.
    ///
    /// `model` must be the very [`InstanceModel`] this solver was built
    /// from ([`PairSolver::new`]); it is consulted only when `level`'s
    /// axiom group is installed for the first time.
    pub fn satisfiable(
        &mut self,
        model: &InstanceModel,
        level: ConsistencyLevel,
        requirements: &[VisRequirement],
    ) -> bool {
        self.ensure_level(model, level);
        let assumptions = self.assumptions(level, requirements);
        self.solve(&assumptions).is_sat()
    }

    /// The assumption vector of one pattern query: the queried level's
    /// guard on, every other installed guard off, then the requirement
    /// literals — shared verbatim by [`PairSolver::satisfiable`] and
    /// [`PairSolver::witness`] so both decide the exact same query.
    fn assumptions(
        &self,
        level: ConsistencyLevel,
        requirements: &[VisRequirement],
    ) -> Vec<Lit> {
        let mut assumptions = Vec::with_capacity(requirements.len() + 4);
        for other in ConsistencyLevel::ALL {
            if let Some(g) = self.guards[other.index()] {
                assumptions.push(if other == level { g } else { !g });
            }
        }
        for &(a, c, polarity) in requirements {
            let l = self.enc.vis[a][c];
            assumptions.push(if polarity { l } else { !l });
        }
        assumptions
    }

    /// Decides the same query as [`PairSolver::satisfiable`] but, when it
    /// is satisfiable, decodes the solver's model into the full
    /// [`WitnessTruth`] — every `ord` and `vis` literal evaluated under the
    /// satisfying assignment. Returns `None` on UNSAT. The solver is
    /// deterministic, so identical queries decode identical witnesses.
    pub fn witness(
        &mut self,
        model: &InstanceModel,
        level: ConsistencyLevel,
        requirements: &[VisRequirement],
    ) -> Option<WitnessTruth> {
        self.ensure_level(model, level);
        let assumptions = self.assumptions(level, requirements);
        let result = self.solve(&assumptions);
        let m = result.model()?;
        let value = |l: Lit| m[l.var().index()] == l.is_positive();
        let n = self.enc.ord.len();
        let ord = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| self.enc.ord[i][j].map(&value).unwrap_or(false))
                    .collect()
            })
            .collect();
        let vis = self
            .enc
            .vis
            .iter()
            .map(|row| row.iter().map(|&l| value(l)).collect())
            .collect();
        Some(WitnessTruth { ord, vis })
    }

    /// Clauses this pair's shared encoding holds (excluding learnt ones).
    pub fn encoded_clauses(&self) -> usize {
        self.base_clauses + self.level_clauses.iter().sum::<usize>()
    }

    /// Clauses a fresh per-query encoding would have emitted for `level`.
    pub fn fresh_equivalent_clauses(&self, level: ConsistencyLevel) -> usize {
        self.base_clauses + self.level_clauses[level.index()]
    }

    /// Cumulative statistics of the underlying solver.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// The pair's stored CNF (root facts as units, then the encoded
    /// clauses), for replaying the *real* detection formula through raw
    /// solvers — the `solver_stats` microbench's arena-vs-baseline
    /// comparison input.
    pub fn problem_clauses(&self) -> Vec<Vec<Lit>> {
        self.solver.problem_clauses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::summarize_program;
    use atropos_dsl::parse;

    fn model_for(src: &str, t1: &str, t2: &str) -> InstanceModel {
        let p = parse(src).unwrap();
        let sums = summarize_program(&p);
        let s1 = sums.iter().find(|s| s.name == t1).unwrap();
        let s2 = sums.iter().find(|s| s.name == t2).unwrap();
        InstanceModel::new(s1, s2)
    }

    const COUNTER: &str = "schema T { id: int key, v: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }";

    #[test]
    fn witness_records_unify_equal_keys() {
        let m = model_for(COUNTER, "bump", "bump");
        // One shared record class `k` for schema T.
        assert_eq!(m.records.len(), 1);
        assert_eq!(m.cmds.len(), 4);
        assert_eq!(m.atoms.len(), 4);
    }

    #[test]
    fn lost_update_sat_under_ec_unsat_under_sc() {
        let m = model_for(COUNTER, "bump", "bump");
        let r = 0;
        // I1: R=0, W=1. I2: R=2, W=3.
        let a_w1 = m.atom(1, r).unwrap();
        let a_w2 = m.atom(3, r).unwrap();
        let reqs = [(a_w2, 0, false), (a_w1, 2, false)];
        assert!(pattern_satisfiable(
            &m,
            ConsistencyLevel::EventualConsistency,
            &reqs
        ));
        assert!(pattern_satisfiable(&m, ConsistencyLevel::CausalConsistency, &reqs));
        assert!(pattern_satisfiable(&m, ConsistencyLevel::RepeatableRead, &reqs));
        assert!(!pattern_satisfiable(&m, ConsistencyLevel::Serializable, &reqs));
    }

    #[test]
    fn session_visibility_is_forced() {
        let m = model_for(COUNTER, "bump", "bump");
        let r = 0;
        let a_w1 = m.atom(1, r).unwrap();
        // W's atom cannot be invisible to a later command of I1... there is
        // none after W, so check the read's atom instead: R's atom (reads
        // produce an atom too) must be visible to W (cmd 1).
        let a_r1 = m.atom(0, r).unwrap();
        assert!(!pattern_satisfiable(
            &m,
            ConsistencyLevel::EventualConsistency,
            &[(a_r1, 1, false)]
        ));
        // And W's atom cannot be visible to R (its own past).
        assert!(!pattern_satisfiable(
            &m,
            ConsistencyLevel::EventualConsistency,
            &[(a_w1, 0, true)]
        ));
    }

    const TWO_WRITES: &str = "schema A { id: int key, x: int }
         schema B { id: int key, y: int }
         txn wr(k: int) {
             @W1 update A set x = 1 where id = k;
             @W2 update B set y = 1 where id = k;
             return 0;
         }
         txn rd(k: int) {
             @R1 a := select x from A where id = k;
             @R2 bb := select y from B where id = k;
             return a.x + bb.y;
         }";

    #[test]
    fn dirty_read_sat_under_ec_and_cc_when_later_write_missing() {
        let m = model_for(TWO_WRITES, "wr", "rd");
        // I1: W1=0 (A), W2=1 (B). I2: R1=2 (A), R2=3 (B).
        let ra = m.cmds[2].records[0];
        let rb = m.cmds[3].records[0];
        let a_w1 = m.atom(0, ra).unwrap();
        let a_w2 = m.atom(1, rb).unwrap();
        // Observe W1 but not the later W2.
        let reqs = [(a_w1, 2, true), (a_w2, 3, false)];
        assert!(pattern_satisfiable(&m, ConsistencyLevel::EventualConsistency, &reqs));
        assert!(pattern_satisfiable(&m, ConsistencyLevel::CausalConsistency, &reqs));
        assert!(!pattern_satisfiable(&m, ConsistencyLevel::Serializable, &reqs));
    }

    #[test]
    fn causal_consistency_forbids_observing_later_but_not_earlier_write() {
        let m = model_for(TWO_WRITES, "wr", "rd");
        let ra = m.cmds[2].records[0];
        let rb = m.cmds[3].records[0];
        let a_w1 = m.atom(0, ra).unwrap();
        let a_w2 = m.atom(1, rb).unwrap();
        // Observe the *later* W2 at R2 but miss the earlier W1 at R1.
        // R2 runs after R1 in program order, so under CC the chain
        // W1 → (session) → W2 → R2 … does not force W1 at R1 (different
        // command): still satisfiable? The chain axiom only closes through
        // observers, and R1 never observed anything — so CC allows it.
        let reqs = [(a_w2, 3, true), (a_w1, 2, false)];
        assert!(pattern_satisfiable(&m, ConsistencyLevel::EventualConsistency, &reqs));
        assert!(pattern_satisfiable(&m, ConsistencyLevel::CausalConsistency, &reqs));
        assert!(!pattern_satisfiable(&m, ConsistencyLevel::Serializable, &reqs));
    }

    #[test]
    fn repeatable_read_blocks_new_visibility_on_touched_record() {
        // One transaction reads the same record twice; the other writes it.
        let src = "schema T { id: int key, v: int }
             txn rr(k: int) {
                 @R1 x := select v from T where id = k;
                 @R2 y := select v from T where id = k;
                 return x.v + y.v;
             }
             txn w(k: int) {
                 @W update T set v = 9 where id = k;
                 return 0;
             }";
        let m = model_for(src, "rr", "w");
        let r = m.cmds[0].records[0];
        let a_w = m.atom(2, r).unwrap();
        // Second read sees the write, first read does not: classic
        // non-repeatable read — allowed under EC, forbidden under RR.
        let reqs = [(a_w, 1, true), (a_w, 0, false)];
        assert!(pattern_satisfiable(&m, ConsistencyLevel::EventualConsistency, &reqs));
        assert!(!pattern_satisfiable(&m, ConsistencyLevel::RepeatableRead, &reqs));
        assert!(!pattern_satisfiable(&m, ConsistencyLevel::Serializable, &reqs));
    }

    #[test]
    fn witness_decodes_a_consistent_model() {
        let m = model_for(COUNTER, "bump", "bump");
        let r = 0;
        let a_w1 = m.atom(1, r).unwrap();
        let a_w2 = m.atom(3, r).unwrap();
        let reqs = [(a_w2, 0, false), (a_w1, 2, false)];
        let mut s = PairSolver::new(&m);
        let w = s
            .witness(&m, ConsistencyLevel::EventualConsistency, &reqs)
            .expect("lost update is EC-satisfiable");
        // The decoded vis honours the query's requirements…
        assert!(!w.vis[a_w2][0]);
        assert!(!w.vis[a_w1][2]);
        // …and the decoded ord is a valid total order: the arbitration
        // positions form a permutation and agree with program order.
        let mut pos: Vec<usize> = (0..m.cmds.len())
            .map(|c| w.arbitration_position(c))
            .collect();
        assert!(w.ord[0][1] && w.ord[2][3], "program order embedded");
        pos.sort_unstable();
        assert_eq!(pos, vec![0, 1, 2, 3]);
        // Decoding twice yields the same witness (solver determinism), and
        // the same solver still answers plain queries afterwards.
        let again = s.witness(&m, ConsistencyLevel::EventualConsistency, &reqs);
        assert_eq!(again.as_ref(), Some(&w));
        assert!(s.satisfiable(&m, ConsistencyLevel::EventualConsistency, &reqs));
        // UNSAT queries decode to no witness.
        assert!(s.witness(&m, ConsistencyLevel::Serializable, &reqs).is_none());
    }

    #[test]
    fn no_stored_clause_mentions_a_root_assigned_variable() {
        let src = "schema T { id: int key, v: int }
             schema U { id: int key, w: int }
             txn move(k: int) {
                 @R x := select v from T where id = k;
                 @W update T set v = x.v + 1 where id = k;
                 @L update U set w = 1 where id = k;
                 return 0;
             }
             txn peek(k: int) {
                 @A a := select v from T where id = k;
                 @B b := select w from U where id = k;
                 @C c := select v from T where id = k;
                 return a.v + b.w + c.v;
             }";
        let sums = summarize_program(&parse(src).unwrap());
        let txn = |name: &str| sums.iter().find(|s| s.name == name).unwrap();
        let (mv, peek) = (txn("move"), txn("peek"));
        for model in [
            InstanceModel::new(mv, peek),
            InstanceModel::new_multi(&[mv, peek, mv]),
        ] {
            assert_eq!(model.cmds.len(), 3 * model.instances());
            let mut s = PairSolver::new(&model);
            for level in ConsistencyLevel::ALL {
                s.ensure_level(&model, level);
            }
            let clauses = s.problem_clauses();
            let (units, stored): (Vec<_>, Vec<_>) = clauses.iter().partition(|c| c.len() == 1);
            let root: std::collections::HashSet<_> = units.iter().map(|c| c[0].var()).collect();
            assert!(!root.is_empty() && !stored.is_empty());
            for c in stored {
                assert!(
                    c.iter().all(|l| !root.contains(&l.var())),
                    "{} instances: stored clause {c:?} mentions a root-assigned variable",
                    model.instances()
                );
            }
        }
    }

    #[test]
    fn fresh_inserts_get_distinct_records() {
        let src = "schema L { id: int key, u: uuid key, n: int }
             txn log(k: int) {
                 @I insert into L values (id = k, u = uuid(), n = 1);
                 return 0;
             }";
        let m = model_for(src, "log", "log");
        assert_eq!(m.records.len(), 2);
        assert_ne!(m.cmds[0].records, m.cmds[1].records);
    }

    #[test]
    fn scans_touch_fresh_records() {
        let src = "schema L { id: int key, u: uuid key, n: int }
             txn log(k: int) {
                 @I insert into L values (id = k, u = uuid(), n = 1);
                 return 0;
             }
             txn rd() {
                 @S x := select n from L;
                 return sum(x.n);
             }";
        let m = model_for(src, "log", "rd");
        // Scan touches the fresh record of the insert.
        let fresh_rec = m.cmds[0].records[0];
        assert!(m.cmds[1].records.contains(&fresh_rec));
    }
}
