//! Grounding bounded anomaly queries to CNF.
//!
//! For a candidate pair of transactions the detector instantiates two
//! transaction instances and grounds the paper's FOL anomaly formula over
//! their events: boolean variables encode the arbitration order `ord` over
//! command instances (total, antisymmetric, transitive) and the visibility
//! relation `vis` between atoms (command × record event groups) and
//! commands. The consistency level contributes its axioms; a pattern query
//! then asserts a serializability violation restricted to a specific pair of
//! commands, and a SAT solver decides satisfiability — exactly the role Z3
//! plays in the paper.
//!
//! This encoding is the reference: [`pattern_satisfiable`] decides one
//! query on a fresh solver, with only the queried level's axioms and the
//! requirements asserted as unit clauses. Detection and witness replay ask
//! the closure ([`crate::closure`]) instead, which decides the same
//! queries without a search, and whose certificates cite clause instances
//! of this encoding: every clause family is written down once, in
//! `Layout`, over the variable numbering `encode_base` allocates.
//!
//! The encoder emits program order as root facts before the transitivity
//! clauses they decide, on purpose: a solver then stores only what the root
//! assignment leaves open (see `encode_base`).

use std::collections::HashMap;

use atropos_sat::{Lit, Solver, SolverStats, Var};

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
    /// stable serialization tag of the `verdict_cache.v3` format.
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
        // Keyed by (schema, key class), borrowed from the summaries.
        let mut record_idx: HashMap<(&str, &str), usize> = HashMap::new();
        let mut raw: Vec<(u8, CmdSummary)> = Vec::new();
        let mut starts = Vec::with_capacity(ts.len() + 1);
        for (inst, t) in ts.iter().enumerate() {
            starts.push(raw.len());
            raw.extend(t.commands.iter().cloned().map(|s| (inst as u8, s)));
        }
        starts.push(raw.len());
        let summaries = || ts.iter().flat_map(|t| &t.commands);

        for c in summaries() {
            if let KeySpec::Keyed { key: k, constant } = &c.key {
                record_idx.entry((&c.schema, k)).or_insert_with(|| {
                    records.push(WitnessRecord {
                        schema: c.schema.clone(),
                        class: k.clone(),
                        constant: *constant,
                        fresh: false,
                    });
                    records.len() - 1
                });
            }
        }
        // Scan placeholder for schemas with no keyed class.
        for c in summaries() {
            if c.key == KeySpec::Scan
                && !records
                    .iter()
                    .any(|r| r.schema == c.schema && r.class != "fresh")
            {
                record_idx.entry((&c.schema, "*")).or_insert_with(|| {
                    records.push(WitnessRecord {
                        schema: c.schema.clone(),
                        class: "*".to_owned(),
                        constant: false,
                        fresh: false,
                    });
                    records.len() - 1
                });
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
                    vec![record_idx[&(summary.schema.as_str(), k.as_str())]]
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

    pub(crate) fn same_instance(&self, a: usize, b: usize) -> bool {
        self.cmds[a].instance == self.cmds[b].instance
    }

    pub(crate) fn prog_before(&self, a: usize, b: usize) -> bool {
        self.same_instance(a, b) && self.cmds[a].summary.prog_index < self.cmds[b].summary.prog_index
    }

    pub(crate) fn touches(&self, cmd: usize, record: usize) -> bool {
        self.cmds[cmd].records.contains(&record)
    }
}

/// A visibility requirement of a pattern query: atom, observing command,
/// and required polarity.
pub type VisRequirement = (usize, usize, bool);

/// The truth assignment of one satisfying anomaly witness: the complete
/// arbitration order and visibility relation of a model of a dirty query
/// (the closure's least model, [`crate::closure::Closure::witness`]).
/// This is the static schedule the replay pipeline ([`crate::replay`])
/// turns into a concrete simulator run.
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

/// The variable numbering of [`encode_base`]: each `ord` literal of an
/// unordered command pair `i < j`, in that order, then each `vis` literal,
/// atom by atom; the SER axioms number their block literals after them.
/// It is arithmetic, so the closure's certificates ([`crate::closure`])
/// name the very variables the reference encoding allocates without
/// building it.
///
/// Each clause family the encoder emits is written down once, as a
/// method here: [`encode_base`] and [`encode_level`] emit its instances,
/// and a certificate cites the instances its refutation uses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// Command instances.
    n: usize,
    /// Atoms.
    na: usize,
    /// Transaction instances.
    k: usize,
}

impl Layout {
    pub(crate) fn new(model: &InstanceModel) -> Layout {
        Layout {
            n: model.cmds.len(),
            na: model.atoms.len(),
            k: model.instances(),
        }
    }

    /// Variables of the `ord` literals.
    fn ord_vars(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }

    /// Variables [`encode_base`] allocates.
    fn vars(&self) -> usize {
        self.ord_vars() + self.na * self.n
    }

    /// "Command `i` is arbitrated before command `j`" (`i != j`): one
    /// variable per unordered pair, so `ord(j, i)` is `¬ord(i, j)`.
    pub(crate) fn ord(&self, i: usize, j: usize) -> Lit {
        debug_assert!(i != j);
        let (lo, hi) = (i.min(j), i.max(j));
        let v = lo * self.n - lo * (lo + 1) / 2 + (hi - lo - 1);
        Lit::new(Var(v as u32), i < j)
    }

    /// "Atom `a` is visible to command `c`".
    pub(crate) fn vis(&self, a: usize, c: usize) -> Lit {
        Var((self.ord_vars() + a * self.n + c) as u32).positive()
    }

    /// "Instance `x` runs entirely before instance `y`" (`x < y`), the
    /// SER axioms' block literal.
    fn blk(&self, x: usize, y: usize) -> Lit {
        debug_assert!(x < y);
        let v = self.vars() + x * self.k - x * (x + 1) / 2 + (y - x - 1);
        Var(v as u32).positive()
    }

    /// Program order: `i` precedes `j` in their instance.
    pub(crate) fn program_order(&self, i: usize, j: usize) -> [Lit; 1] {
        [self.ord(i, j)]
    }

    /// Transitivity of `ord` over one unordered triple `i < j < k`: one
    /// clause per forbidden 3-cycle orientation, `i → j → k → i` first.
    pub(crate) fn transitivity(&self, i: usize, j: usize, k: usize) -> [[Lit; 3]; 2] {
        let (ij, jk, ik) = (self.ord(i, j), self.ord(j, k), self.ord(i, k));
        [[!ij, !jk, ik], [ij, jk, !ik]]
    }

    /// The session fact on `vis(a, c)` when `c` is in the instance of
    /// `a`'s producer: a command's view predates its own events, and a
    /// transaction sees its own earlier effects. `None` across instances.
    pub(crate) fn session_fact(&self, model: &InstanceModel, a: usize, c: usize) -> Option<Lit> {
        let producer = model.atoms[a].cmd;
        let l = self.vis(a, c);
        if !model.same_instance(producer, c) {
            None
        } else if model.prog_before(producer, c) {
            Some(l)
        } else {
            Some(!l)
        }
    }

    /// Visibility implies arbitration, across instances.
    pub(crate) fn vis_ord(&self, model: &InstanceModel, a: usize, c: usize) -> [Lit; 2] {
        [!self.vis(a, c), self.ord(model.atoms[a].cmd, c)]
    }

    /// CC observer chain: `vis(b, cp) ∧ vis(a, c) ⇒ vis(b, c)` for an atom
    /// `a` that `cp` produces.
    pub(crate) fn observer_chain(&self, b: usize, cp: usize, a: usize, c: usize) -> [Lit; 3] {
        [!self.vis(b, cp), !self.vis(a, c), self.vis(b, c)]
    }

    /// CC writer session: `vis(a, c) ⇒ vis(b, c)` when `b`'s producer
    /// precedes `a`'s in one instance.
    pub(crate) fn writer_session(&self, a: usize, b: usize, c: usize) -> [Lit; 2] {
        [!self.vis(a, c), self.vis(b, c)]
    }

    /// CC monotonic reads: `vis(a, c1) ⇒ vis(a, c2)` for `c1` preceding
    /// `c2` in one instance.
    pub(crate) fn monotonic_read(&self, a: usize, c1: usize, c2: usize) -> [Lit; 2] {
        [!self.vis(a, c1), self.vis(a, c2)]
    }

    /// RR read stability for `c1` preceding `c2`, `c1` touching `a`'s
    /// record: no new visibility (`vis(a, c2) ⇒ vis(a, c1)`), then no
    /// retraction (`vis(a, c1) ⇒ vis(a, c2)`).
    pub(crate) fn read_stability(&self, a: usize, c1: usize, c2: usize) -> [[Lit; 2]; 2] {
        let (v1, v2) = (self.vis(a, c1), self.vis(a, c2));
        [[!v2, v1], [!v1, v2]]
    }

    /// SER: the block literal of `i`'s and `j`'s instances (`i`'s first)
    /// is `ord(i, j)`.
    pub(crate) fn block_order(&self, model: &InstanceModel, i: usize, j: usize) -> [[Lit; 2]; 2] {
        let (x, y) = (
            model.cmds[i].instance as usize,
            model.cmds[j].instance as usize,
        );
        let (g, l) = (self.blk(x, y), self.ord(i, j));
        [[!g, l], [g, !l]]
    }

    /// SER: `vis(a, c)` across instances holds exactly when the producer's
    /// instance runs first.
    pub(crate) fn block_vis(&self, model: &InstanceModel, a: usize, c: usize) -> [[Lit; 2]; 2] {
        let x = model.cmds[model.atoms[a].cmd].instance as usize;
        let y = model.cmds[c].instance as usize;
        let l = self.vis(a, c);
        if x < y {
            let g = self.blk(x, y);
            [[!g, l], [g, !l]]
        } else {
            let g = self.blk(y, x);
            [[!g, !l], [g, l]]
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
/// has nothing left to delete.
fn encode_base(s: &mut Solver, model: &InstanceModel) -> Layout {
    let enc = Layout::new(model);
    let n = enc.n;
    for _ in 0..enc.vars() {
        s.new_var();
    }
    // Program order within each instance: root facts, first on purpose
    // (see above).
    for i in 0..n {
        for j in 0..n {
            if i != j && model.prog_before(i, j) {
                s.add_clause(enc.program_order(i, j));
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
                for c in enc.transitivity(i, j, k) {
                    s.add_clause(c);
                }
            }
        }
    }
    // vis[a][c]: a session fact inside the producer's instance,
    // visibility-implies-arbitration across instances.
    for a in 0..enc.na {
        for c in 0..n {
            match enc.session_fact(model, a, c) {
                Some(l) => s.add_clause([l]),
                None => s.add_clause(enc.vis_ord(model, a, c)),
            }
        }
    }
    enc
}

/// Encodes the axioms of one consistency level on top of [`encode_base`].
fn encode_level(s: &mut Solver, model: &InstanceModel, enc: &Layout, level: ConsistencyLevel) {
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
                            s.add_clause(enc.observer_chain(bi, cp, ai, c));
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
                        s.add_clause(enc.writer_session(ai, bi, c));
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
                        s.add_clause(enc.monotonic_read(ai, c1, c2));
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
                        for c in enc.read_stability(ai, c1, c2) {
                            s.add_clause(c);
                        }
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
            // single "instance 0 runs first" literal.
            let k = model.instances();
            for _ in 0..k * k.saturating_sub(1) / 2 {
                s.new_var();
            }
            for i in 0..n {
                for j in 0..n {
                    if i == j || model.same_instance(i, j) {
                        continue;
                    }
                    if model.cmds[i].instance < model.cmds[j].instance {
                        for c in enc.block_order(model, i, j) {
                            s.add_clause(c);
                        }
                    }
                }
            }
            for ai in 0..na {
                for c in 0..n {
                    if !model.same_instance(model.atoms[ai].cmd, c) {
                        for cl in enc.block_vis(model, ai, c) {
                            s.add_clause(cl);
                        }
                    }
                }
            }
        }
    }
}

/// Decides whether an execution satisfying `requirements` exists under the
/// axioms of `level` — i.e., whether the candidate anomaly is realizable.
///
/// This is the reference path: it constructs a fresh solver per query,
/// with only the queried level's axioms and the requirements as unit
/// clauses. Detection asks the closure ([`crate::closure::Closure`]),
/// which must return identical answers (enforced by
/// [`crate::detect_differential`] and the mutant differential).
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
    encode_level(&mut s, model, &enc, level);
    for &(a, c, polarity) in requirements {
        let l = enc.vis(a, c);
        s.add_clause([if polarity { l } else { !l }]);
    }
    let sat = s.solve().is_sat();
    (sat, s.stats(), s.num_clauses())
}

/// `model`'s base encoding as a solver stores it once root-simplified:
/// root facts as units, then the stored clauses. The `solver_stats`
/// microbench replays these real detection CNFs through its two solvers.
pub fn base_cnf(model: &InstanceModel) -> Vec<Vec<Lit>> {
    let mut s = Solver::new();
    encode_base(&mut s, model);
    s.simplify();
    s.problem_clauses()
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
        use crate::closure::Closure;
        let m = model_for(COUNTER, "bump", "bump");
        let r = 0;
        let a_w1 = m.atom(1, r).unwrap();
        let a_w2 = m.atom(3, r).unwrap();
        let reqs = [(a_w2, 0, false), (a_w1, 2, false)];
        let mut closure = Closure::new(&m, ConsistencyLevel::EventualConsistency);
        let w = closure
            .witness(&m, &reqs)
            .expect("lost update is EC-satisfiable");
        // The witness honours the query's requirements…
        assert!(!w.vis[a_w2][0]);
        assert!(!w.vis[a_w1][2]);
        // …and its ord is a valid total order: the arbitration positions
        // form a permutation and agree with program order.
        let mut pos: Vec<usize> = (0..m.cmds.len())
            .map(|c| w.arbitration_position(c))
            .collect();
        assert!(w.ord[0][1] && w.ord[2][3], "program order embedded");
        pos.sort_unstable();
        assert_eq!(pos, vec![0, 1, 2, 3]);
        // It is the least model: nothing crosses the instances, so ord is
        // the smallest-index-first order of program order.
        assert!(w.vis.iter().enumerate().all(|(a, row)| row
            .iter()
            .enumerate()
            .all(|(c, &v)| v == m.prog_before(m.atoms[a].cmd, c))));
        assert!(w.ord[1][2]);
        // Asking twice yields the same witness, the full assignment is a
        // model of the reference encoding, and UNSAT queries have none.
        assert_eq!(closure.witness(&m, &reqs).as_ref(), Some(&w));
        let full: Vec<VisRequirement> = (0..m.atoms.len())
            .flat_map(|a| (0..m.cmds.len()).map(move |c| (a, c)))
            .map(|(a, c)| (a, c, w.vis[a][c]))
            .collect();
        assert!(pattern_satisfiable(&m, ConsistencyLevel::EventualConsistency, &full));
        let mut ser = Closure::new(&m, ConsistencyLevel::Serializable);
        assert!(ser.witness(&m, &reqs).is_none());
    }

    /// Every clause a root-simplified fresh solver stores, at every level,
    /// leaves the root facts' variables alone: program order and session
    /// visibility are emitted before the clauses they decide.
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
            for level in ConsistencyLevel::ALL {
                let mut s = Solver::new();
                let enc = encode_base(&mut s, &model);
                encode_level(&mut s, &model, &enc, level);
                s.simplify();
                let clauses = s.problem_clauses();
                let (units, stored): (Vec<_>, Vec<_>) =
                    clauses.iter().partition(|c| c.len() == 1);
                let root: std::collections::HashSet<_> =
                    units.iter().map(|c| c[0].var()).collect();
                assert!(!root.is_empty() && !stored.is_empty());
                for c in stored {
                    assert!(
                        c.iter().all(|l| !root.contains(&l.var())),
                        "{} instances @ {level}: stored clause {c:?} mentions a root-assigned variable",
                        model.instances()
                    );
                }
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
