//! Deciding pattern queries by closure: every query's answer, certificate
//! and witness come from its least model, without a search.
//!
//! # The Horn argument
//!
//! A query asks whether the reference encoding ([`crate::encode`]: base
//! plus one level's axioms) has a model in which a few `vis` literals take
//! given values. Below SER every level axiom is a Horn implication over
//! `vis`: CC's observer chain, writer session and monotonic reads, RR's
//! two read-stability rules. The base adds only session facts (a `vis`
//! literal inside one instance is fixed), `vis ⇒ ord` across instances and
//! a total `ord` containing program order; nothing implies `vis` from
//! `ord`. So let `V` be the least set of `vis` facts holding the positive
//! requirements and the true session facts, closed under the level's
//! implications. Every model's `vis` contains `V`: the query is UNSAT if
//! `V` holds a fact that a negative requirement or a session fact negates,
//! or if program order plus the edges `producer(a) → c` of `V`'s
//! cross-instance facts `vis(a, c)` has a cycle. Otherwise `vis = V`, with
//! `ord` a topological order of those edges, is a model.
//!
//! SER adds no implication; its block literals tie every cross-instance
//! `vis` and `ord` literal to one order of the instances. A query is SAT
//! exactly when its session requirements hold and the instance orders its
//! other requirements force are acyclic.
//!
//! A template or axiom that is not Horn over `vis` breaks this argument;
//! [`crate::detect_differential`] and the mutant differential of
//! `crates/detect/tests/dsl_mutants.rs` hold the closure to
//! [`crate::pattern_satisfiable`] query by query.
//!
//! # The cost of a query
//!
//! [`Closure::new`] indexes a model for a level once per instance group,
//! and keeps program order as one chain per instance: each command's
//! successor is the next command of its instance. A query derives each
//! fact of `V` once, then walks the chains and `V`'s cross-instance edges
//! once to look for a cycle, smallest index first: time linear in the
//! commands and `V`, times a heap's logarithm, where the transitive edge
//! list of program order alone is quadratic in the commands. Chains and
//! that list have the same transitive closure, so the walk finds a cycle
//! exactly when the list has one, and places commands in the same order.
//!
//! # Certificates and witnesses
//!
//! An UNSAT answer is certified by re-deriving `V` with the clause
//! instance behind each fact and walking back from the contradiction (a
//! negated fact, or the shortest `ord` cycle closed by m − 2 transitivity
//! instances) to the instances it used; at SER, from the requirements'
//! block clauses and the block order of each instance's first command.
//! The encoder's own functions build each instance over its variable
//! numbering, so a certificate names only reference-encoding clauses.
//! Every step is unit propagation; an input whose removal still leaves a
//! certificate the independent checker accepts is deleted, and the rest
//! go with the requirement literals to `certify::certificate_blob`.
//!
//! A SAT answer's witness is its least model: `vis = V`, and `ord` the
//! smallest-index-first topological order of program order and `V`'s
//! cross-instance edges; at SER, the first instance order that fixes the
//! requirements, block by block. It depends only on the model and the
//! query, and makes nothing visible that the query does not force.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use atropos_proof::check_blob;
use atropos_sat::Lit;

use crate::certify::certificate_blob;
use crate::encode::{ConsistencyLevel, InstanceModel, Layout, VisRequirement, WitnessTruth};

/// The clause instance that put a fact `vis(x, y)` into `V`, kept while a
/// certificate is derived.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// A positive requirement.
    Required,
    /// CC observer chain: `vis(x, cp) ∧ vis(a, y)` for an atom `a` of `cp`.
    Chain { cp: usize, a: usize },
    /// CC writer session: `vis(a, y)` for an atom `a` produced after `x`.
    Writer { a: usize },
    /// CC monotonic read: `vis(x, c1)` for `c1` preceding `y`.
    Monotonic { c1: usize },
    /// RR, no retraction: `vis(x, c1)` for `c1` preceding `y`.
    Retain { c1: usize },
    /// RR, no new visibility: `vis(x, c2)` for `c2` following `y`.
    Stable { c2: usize },
}

/// Why a query below SER is UNSAT.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    /// A fact of `V` (by index) that a requirement or session fact negates.
    Negated(usize),
    /// Program order plus `V`'s cross-instance edges has a cycle.
    Cycle,
}

/// The closure decider of one grounded model at one consistency level:
/// the per-(model, level) index, built once per instance group, plus the
/// scratch state of one query at a time. A fact `vis(a, c)` is indexed
/// `a * n + c`. It holds no reference to the model: each query takes the
/// model it was indexed for, so an owner can keep the model and its
/// closures side by side.
pub struct Closure {
    level: ConsistencyLevel,
    enc: Layout,
    /// Command instances.
    n: usize,
    /// Per command: the atoms it produces.
    atoms_of: Vec<Vec<usize>>,
    /// Per command: the commands it precedes in program order, nearest
    /// first. The first is its successor in its instance's chain.
    later: Vec<Vec<usize>>,
    /// Per command: the commands preceding it in program order.
    earlier: Vec<Vec<usize>>,
    /// Per fact: derived into `V` this query (session facts never are).
    in_v: Vec<bool>,
    /// Per fact: negated by a requirement this query.
    banned: Vec<bool>,
    /// The facts banned this query.
    negated: Vec<usize>,
    /// The facts derived this query, in order; also the worklist.
    derived: Vec<usize>,
    /// Per command: the atoms derived visible to it this query.
    seen_by: Vec<Vec<usize>>,
    /// Per atom: the commands derived to see it this query.
    observers: Vec<Vec<usize>>,
    /// Per fact: its rule, while deriving a certificate.
    reasons: Option<Vec<Rule>>,
}

impl Closure {
    /// Indexes `model` for queries at `level`. Every query must pass the
    /// same model.
    ///
    /// # Panics
    ///
    /// Panics if two commands of one instance share a `prog_index`:
    /// summaries number commands by position and slices renumber them
    /// relatively, so program order is a chain per instance.
    pub fn new(model: &InstanceModel, level: ConsistencyLevel) -> Closure {
        let (n, na) = (model.cmds.len(), model.atoms.len());
        let mut atoms_of = vec![Vec::new(); n];
        for (a, atom) in model.atoms.iter().enumerate() {
            atoms_of[atom.cmd].push(a);
        }
        let position = |c: usize| model.cmds[c].prog_index;
        let (mut later, mut earlier) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for x in 0..model.instances() {
            let mut chain: Vec<usize> = (model.starts[x]..model.starts[x + 1]).collect();
            chain.sort_by_key(|&c| position(c));
            assert!(
                chain.windows(2).all(|l| position(l[0]) < position(l[1])),
                "two commands of instance {x} share a program position"
            );
            for (k, &c) in chain.iter().enumerate() {
                earlier[c] = chain[..k].to_vec();
                later[c] = chain[k + 1..].to_vec();
            }
        }
        Closure {
            level,
            enc: Layout::new(model),
            n,
            atoms_of,
            later,
            earlier,
            in_v: vec![false; na * n],
            banned: vec![false; na * n],
            negated: Vec::new(),
            derived: Vec::new(),
            seen_by: vec![Vec::new(); n],
            observers: vec![Vec::new(); na],
            reasons: None,
        }
    }

    /// Whether some execution satisfies `requirements` under this
    /// closure's level: the answer [`crate::pattern_satisfiable`] gives.
    pub fn satisfiable(&mut self, model: &InstanceModel, requirements: &[VisRequirement]) -> bool {
        if self.level == ConsistencyLevel::Serializable {
            return self.blocks(model, requirements).is_some();
        }
        self.close(model, requirements).is_ok()
    }

    /// The least model of a satisfiable query (see the module docs), or
    /// `None` when the query is UNSAT.
    pub fn witness(
        &mut self,
        model: &InstanceModel,
        requirements: &[VisRequirement],
    ) -> Option<WitnessTruth> {
        let n = self.n;
        // At SER, each instance's place in the first order that fixes the
        // requirements.
        let mut block = Vec::new();
        if self.level == ConsistencyLevel::Serializable {
            block = vec![0; model.instances()];
            for (p, x) in self.blocks(model, requirements)?.into_iter().enumerate() {
                block[x] = p;
            }
        } else {
            self.close(model, requirements).ok()?;
        }
        let at = |c: usize| block[model.cmds[c].instance as usize];
        let order = if block.is_empty() {
            self.walk()
        } else {
            let mut edges = self.edges(model);
            let pairs = (0..n).flat_map(|i| (0..n).map(move |j| (i, j)));
            edges.extend(pairs.filter(|&(i, j)| at(i) < at(j)));
            topological(n, edges)
        };
        let order = order.expect("a satisfiable query's edges are acyclic");
        let holds = |a: usize, c: usize| match self.enc.session_fact(model, a, c) {
            Some(l) => l.is_positive(),
            None if block.is_empty() => self.in_v[a * n + c],
            None => at(model.atoms[a].cmd) < at(c),
        };
        let vis = (0..model.atoms.len())
            .map(|a| (0..n).map(|c| holds(a, c)).collect())
            .collect();
        Some(WitnessTruth { order, vis })
    }

    /// The certificate of an UNSAT query: an `atropos_proof` blob whose
    /// inputs are clause instances of the reference encoding and whose
    /// assumptions are the requirement literals. `None` when the query is
    /// satisfiable.
    pub fn certificate(
        &mut self,
        model: &InstanceModel,
        requirements: &[VisRequirement],
    ) -> Option<Vec<u8>> {
        let assumptions: Vec<Lit> = requirements
            .iter()
            .map(|&(a, c, polarity)| Lit::new(self.enc.vis(a, c).var(), polarity))
            .collect();
        let inputs = if self.level == ConsistencyLevel::Serializable {
            if self.blocks(model, requirements).is_some() {
                return None;
            }
            self.block_refutation(model, requirements, &assumptions)
        } else {
            self.reasons = Some(vec![Rule::Required; self.in_v.len()]);
            let closed = self.close(model, requirements);
            let inputs = closed
                .err()
                .map(|conflict| self.refutation(model, conflict));
            self.reasons = None;
            inputs?
        };
        Some(minimal_certificate(inputs, &assumptions))
    }

    /// Computes `V` for one query below SER into the scratch state.
    fn close(
        &mut self,
        model: &InstanceModel,
        requirements: &[VisRequirement],
    ) -> Result<(), Conflict> {
        debug_assert_eq!(
            (model.cmds.len(), model.atoms.len()),
            (self.n, self.observers.len()),
            "the model this closure indexed"
        );
        let n = self.n;
        for f in self.derived.drain(..) {
            self.in_v[f] = false;
            self.seen_by[f % n].clear();
            self.observers[f / n].clear();
        }
        for f in self.negated.drain(..) {
            self.banned[f] = false;
        }
        for &(a, c, _) in requirements.iter().filter(|r| !r.2) {
            if model.prog_before(model.atoms[a].cmd, c) {
                return Err(Conflict::Negated(a * n + c));
            }
            self.banned[a * n + c] = true;
            self.negated.push(a * n + c);
        }
        for &(a, c, _) in requirements.iter().filter(|r| r.2) {
            self.add(model, a, c, Rule::Required)?;
        }
        let mut next = 0;
        while let Some(&f) = self.derived.get(next) {
            next += 1;
            self.fire(model, f / n, f % n)?;
        }
        if !self.derived.is_empty() && self.walk().is_none() {
            return Err(Conflict::Cycle);
        }
        Ok(())
    }

    /// The smallest-index-first topological order of program order plus
    /// the derived facts' cross-instance edges, or `None` when they have a
    /// cycle. Program order is walked as its per-instance chains, whose
    /// transitive closure it is, so the order is the one [`topological`]
    /// gives over [`Closure::edges`] without building the transitive
    /// edges: a node is ready once every predecessor is placed, and the
    /// placed nodes are closed under predecessors either way.
    fn walk(&self) -> Option<Vec<usize>> {
        let n = self.n;
        // A command waits for its chain predecessor and for the producer
        // of each atom derived visible to it.
        let mut indegree: Vec<usize> = (0..n)
            .map(|c| usize::from(!self.earlier[c].is_empty()) + self.seen_by[c].len())
            .collect();
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&c| indegree[c] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(u)) = ready.pop() {
            order.push(u);
            let successor = self.later[u].first();
            let observers = self.atoms_of[u].iter().flat_map(|&a| &self.observers[a]);
            for &c in successor.into_iter().chain(observers) {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(Reverse(c));
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Program order plus the cross-instance edges of the derived facts,
    /// as an edge list: what SER's witness orders and a cycle's
    /// certificate cites.
    fn edges(&self, model: &InstanceModel) -> Vec<(usize, usize)> {
        let n = self.n;
        let program_order = (0..n).flat_map(|i| self.later[i].iter().map(move |&j| (i, j)));
        let derived = self
            .derived
            .iter()
            .map(|&f| (model.atoms[f / n].cmd, f % n));
        program_order.chain(derived).collect()
    }

    /// Puts `vis(a, c)` into `V` by `rule`, failing on a fact the session
    /// or a requirement negates.
    fn add(
        &mut self,
        model: &InstanceModel,
        a: usize,
        c: usize,
        rule: Rule,
    ) -> Result<(), Conflict> {
        let f = a * self.n + c;
        let producer = model.atoms[a].cmd;
        if model.prog_before(producer, c) || self.in_v[f] {
            return Ok(());
        }
        if let Some(reasons) = self.reasons.as_mut() {
            reasons[f] = rule;
        }
        if model.same_instance(producer, c) {
            return Err(Conflict::Negated(f));
        }
        self.in_v[f] = true;
        self.derived.push(f);
        self.seen_by[c].push(a);
        self.observers[a].push(c);
        if self.banned[f] {
            return Err(Conflict::Negated(f));
        }
        Ok(())
    }

    /// Derives what the level's implications derive from the new
    /// cross-instance fact `vis(x, y)` and the facts already in `V`.
    fn fire(&mut self, model: &InstanceModel, x: usize, y: usize) -> Result<(), Conflict> {
        let px = model.atoms[x].cmd;
        match self.level {
            ConsistencyLevel::CausalConsistency => {
                // Writer session: the atoms produced before `x`.
                for i in 0..self.earlier[px].len() {
                    let p = self.earlier[px][i];
                    for k in 0..self.atoms_of[p].len() {
                        self.add(model, self.atoms_of[p][k], y, Rule::Writer { a: x })?;
                    }
                }
                // Monotonic reads: the commands after `y`.
                for i in 0..self.later[y].len() {
                    self.add(model, x, self.later[y][i], Rule::Monotonic { c1: y })?;
                }
                // Observer chain, `vis(x, y)` as `vis(b, c')`: each derived
                // observer of an atom of `y`. Its session observers follow
                // `y`, and the monotonic reads above covered them.
                for i in 0..self.atoms_of[y].len() {
                    let a = self.atoms_of[y][i];
                    let mut k = 0;
                    while let Some(&c) = self.observers[a].get(k) {
                        k += 1;
                        if c != px {
                            self.add(model, x, c, Rule::Chain { cp: y, a })?;
                        }
                    }
                }
                // Observer chain, `vis(x, y)` as `vis(a, c)`: each atom
                // derived visible to `x`'s producer. Those it sees by
                // session precede `x`, and the writer session covered them.
                let mut k = 0;
                while let Some(&b) = self.seen_by[px].get(k) {
                    k += 1;
                    if model.atoms[b].cmd != y {
                        self.add(model, b, y, Rule::Chain { cp: px, a: x })?;
                    }
                }
            }
            ConsistencyLevel::RepeatableRead => {
                let record = model.atoms[x].record;
                if model.touches(y, record) {
                    for i in 0..self.later[y].len() {
                        self.add(model, x, self.later[y][i], Rule::Retain { c1: y })?;
                    }
                }
                for i in 0..self.earlier[y].len() {
                    let c1 = self.earlier[y][i];
                    if model.touches(c1, record) {
                        self.add(model, x, c1, Rule::Stable { c2: y })?;
                    }
                }
            }
            ConsistencyLevel::EventualConsistency | ConsistencyLevel::Serializable => {}
        }
        Ok(())
    }

    /// SER: the first instance order (smallest index first) that fixes
    /// every requirement, or `None` when none does.
    fn blocks(&self, model: &InstanceModel, requirements: &[VisRequirement]) -> Option<Vec<usize>> {
        let instance = |c: usize| model.cmds[c].instance as usize;
        let mut forced = Vec::new();
        for &(a, c, polarity) in requirements {
            match self.enc.session_fact(model, a, c) {
                Some(l) if l.is_positive() != polarity => return None,
                Some(_) => {}
                None => {
                    let (x, y) = (instance(model.atoms[a].cmd), instance(c));
                    forced.push(if polarity { (x, y) } else { (y, x) });
                }
            }
        }
        topological(model.instances(), forced)
    }

    /// The clause instances behind a contradiction below SER, with the
    /// derivations of the facts it rests on. A cycle is cited as a
    /// shortest one over the full edge list: a shortest cycle over the
    /// chains alone would cite other transitivity instances.
    fn refutation(&self, model: &InstanceModel, conflict: Conflict) -> Vec<Vec<Lit>> {
        let (enc, n) = (&self.enc, self.n);
        let mut inputs = Vec::new();
        let mut facts = Vec::new();
        match conflict {
            Conflict::Negated(f) => {
                let negation = enc.session_fact(model, f / n, f % n);
                inputs.extend(negation.filter(|l| !l.is_positive()).map(|l| vec![l]));
                facts.push(f);
            }
            Conflict::Cycle => {
                let cycle =
                    shortest_cycle(n, self.edges(model)).expect("a cyclic query has a cycle");
                for (i, &from) in cycle.iter().enumerate() {
                    let to = cycle[(i + 1) % cycle.len()];
                    let edge = |f: &&usize| **f % n == to && model.atoms[**f / n].cmd == from;
                    match self.derived.iter().find(edge) {
                        Some(&f) => {
                            inputs.push(enc.vis_ord(model, f / n, to).to_vec());
                            facts.push(f);
                        }
                        None => inputs.push(enc.program_order(from, to).to_vec()),
                    }
                }
                inputs.extend(closing_transitivity(enc, &cycle));
            }
        }
        self.support(model, facts, &mut inputs);
        inputs
    }

    /// Appends the clause instances that derive `facts` from the
    /// requirements: each fact's rule, then its premises', once each.
    fn support(&self, model: &InstanceModel, mut facts: Vec<usize>, inputs: &mut Vec<Vec<Lit>>) {
        let (enc, n) = (&self.enc, self.n);
        let reasons = self.reasons.as_ref().expect("derived with reasons");
        let mut visited = HashSet::new();
        while let Some(f) = facts.pop() {
            let (x, y) = (f / n, f % n);
            if !visited.insert(f) {
                continue;
            }
            if model.prog_before(model.atoms[x].cmd, y) {
                inputs.push(vec![enc.vis(x, y)]);
                continue;
            }
            let (clause, premises) = match reasons[f] {
                Rule::Required => continue,
                Rule::Chain { cp, a } => (
                    enc.observer_chain(x, cp, a, y).to_vec(),
                    vec![x * n + cp, a * n + y],
                ),
                Rule::Writer { a } => (enc.writer_session(a, x, y).to_vec(), vec![a * n + y]),
                Rule::Monotonic { c1 } => (enc.monotonic_read(x, c1, y).to_vec(), vec![x * n + c1]),
                Rule::Retain { c1 } => (enc.read_stability(x, c1, y)[1].to_vec(), vec![x * n + c1]),
                Rule::Stable { c2 } => (enc.read_stability(x, y, c2)[0].to_vec(), vec![x * n + c2]),
            };
            inputs.push(clause);
            facts.extend(premises);
        }
    }

    /// SER: clause instances that refute an UNSAT query. Each requirement
    /// contributes its session fact or the block clause that propagates it
    /// to its instances' block literal; the first command of each instance
    /// carries the block order into `ord`, where a cyclic order meets
    /// transitivity. Minimizing keeps what the refutation uses.
    fn block_refutation(
        &self,
        model: &InstanceModel,
        requirements: &[VisRequirement],
        assumptions: &[Lit],
    ) -> Vec<Vec<Lit>> {
        let enc = &self.enc;
        let mut inputs = Vec::new();
        for (&(a, c, _), &l) in requirements.iter().zip(assumptions) {
            match enc.session_fact(model, a, c) {
                Some(fact) => inputs.push(vec![fact]),
                None => {
                    let [first, second] = enc.block_vis(model, a, c);
                    let reason = if first.contains(&!l) { first } else { second };
                    inputs.push(reason.to_vec());
                }
            }
        }
        let firsts: Vec<usize> = (0..model.instances())
            .filter(|&x| model.starts[x] < model.starts[x + 1])
            .map(|x| model.starts[x])
            .collect();
        for (i, &ci) in firsts.iter().enumerate() {
            for (j, &cj) in firsts.iter().enumerate().skip(i + 1) {
                inputs.extend(enc.block_order(model, ci, cj).map(|cl| cl.to_vec()));
                for &ck in &firsts[j + 1..] {
                    inputs.extend(enc.transitivity(ci, cj, ck).map(|cl| cl.to_vec()));
                }
            }
        }
        inputs
    }
}

/// The smallest-index-first topological order of the graph on `n` nodes
/// with `edges`, or `None` when it has a cycle.
fn topological(n: usize, mut edges: Vec<(usize, usize)>) -> Option<Vec<usize>> {
    edges.sort_unstable();
    let mut indegree = vec![0usize; n];
    for &(_, v) in &edges {
        indegree[v] += 1;
    }
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&v| indegree[v] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(u)) = ready.pop() {
        order.push(u);
        for &(_, v) in successors(&edges, u) {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                ready.push(Reverse(v));
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// The edges leaving `u` in a sorted edge list.
fn successors(edges: &[(usize, usize)], u: usize) -> &[(usize, usize)] {
    let start = edges.partition_point(|&(s, _)| s < u);
    let end = edges.partition_point(|&(s, _)| s <= u);
    &edges[start..end]
}

/// A shortest cycle of the graph on `n` nodes with `edges`, as its nodes
/// in order from the smallest start node that has one.
fn shortest_cycle(n: usize, mut edges: Vec<(usize, usize)>) -> Option<Vec<usize>> {
    edges.sort_unstable();
    let mut best: Option<Vec<usize>> = None;
    for s in 0..n {
        // Breadth-first from `s` until an edge closes back to it.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut queue = VecDeque::from([s]);
        let mut last = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &(_, v) in successors(&edges, u) {
                if v == s {
                    last = Some(u);
                    break 'bfs;
                }
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        let Some(mut u) = last else { continue };
        let mut cycle = vec![u];
        while u != s {
            u = parent[u].expect("a path back to the start");
            cycle.push(u);
        }
        cycle.reverse();
        if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
            best = Some(cycle);
        }
    }
    best
}

/// The m − 2 transitivity instances that close the `ord` cycle
/// `c0 → c1 → … → c(m−1) → c0`: each derives `ord(c0, c(t+1))` from
/// `ord(c0, ct)` and `ord(ct, c(t+1))`, and the last contradicts the
/// cycle's closing edge.
fn closing_transitivity(enc: &Layout, cycle: &[usize]) -> Vec<Vec<Lit>> {
    let c0 = cycle[0];
    let sorted = |mut lits: [Lit; 3]| {
        lits.sort_unstable();
        lits
    };
    (1..cycle.len().saturating_sub(1))
        .map(|t| {
            let (ct, next) = (cycle[t], cycle[t + 1]);
            let want = sorted([!enc.ord(c0, ct), !enc.ord(ct, next), enc.ord(c0, next)]);
            let mut triple = [c0, ct, next];
            triple.sort_unstable();
            let [i, j, k] = triple;
            let [first, second] = enc.transitivity(i, j, k);
            if sorted(first) == want { first } else { second }.to_vec()
        })
        .collect()
}

/// The certificate of `inputs` refuting `assumptions`, after deleting
/// every input whose removal still leaves a certificate the checker
/// accepts, that is, one unit propagation still refutes. Propagation is
/// monotone in the inputs, so one pass leaves each remaining input
/// load-bearing.
fn minimal_certificate(mut inputs: Vec<Vec<Lit>>, assumptions: &[Lit]) -> Vec<u8> {
    let mut seen = HashSet::new();
    inputs.retain(|c| seen.insert(c.clone()));
    let mut i = 0;
    while i < inputs.len() {
        let removed = inputs.remove(i);
        if check_blob(&certificate_blob(&inputs, assumptions)).is_err() {
            inputs.insert(i, removed);
            i += 1;
        }
    }
    certificate_blob(&inputs, assumptions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::candidate_queries;
    use crate::encode::pattern_satisfiable;
    use crate::model::{summarize_program, TxnSummary};
    use atropos_proof::{check, Proof, Step};

    /// The model of `names` (two or three transactions) of `src`.
    fn model(src: &str, names: &[&str]) -> InstanceModel {
        let sums = summarize_program(&atropos_dsl::parse(src).unwrap());
        let members: Vec<_> = names
            .iter()
            .map(|n| sums.iter().find(|s| s.name == *n).unwrap())
            .collect();
        InstanceModel::new_multi(&members)
    }

    /// An UNSAT query's certificate checks, and dropping any one of its
    /// inputs makes the checker reject it.
    fn assert_certified(m: &InstanceModel, level: ConsistencyLevel, reqs: &[VisRequirement]) {
        let mut closure = Closure::new(m, level);
        assert!(!closure.satisfiable(m, reqs), "{level}: {reqs:?}");
        assert!(!pattern_satisfiable(m, level, reqs), "{level}: {reqs:?}");
        assert!(closure.witness(m, reqs).is_none());
        let blob = closure
            .certificate(m, reqs)
            .expect("UNSAT queries are certified");
        check_blob(&blob).unwrap_or_else(|e| panic!("{level} {reqs:?}: {e}"));
        let proof = Proof::decode(&blob).unwrap();
        let inputs = proof
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Input(_)))
            .count();
        assert!(inputs > 0, "{level}: {reqs:?}");
        for (j, step) in proof.steps.iter().enumerate() {
            if matches!(step, Step::Input(_)) {
                let mut mutant = proof.clone();
                mutant.steps.remove(j);
                assert!(
                    check(&mutant).is_err(),
                    "{level} {reqs:?}: input {j} is idle"
                );
            }
        }
    }

    const COUNTER: &str = "schema T { id: int key, v: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }";

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
             @R3 c := select x from A where id = k;
             return a.x + bb.y + c.x;
         }";

    /// One UNSAT query per kind of contradiction, each certified with
    /// only load-bearing inputs: an `ord` cycle, a session fact negated by
    /// a requirement and by a derived fact, a derived fact a requirement
    /// negates (CC writer session and RR read stability), opposed block
    /// orders at SER, and a cyclic block order of three instances.
    #[test]
    fn every_kind_of_contradiction_is_certified() {
        use ConsistencyLevel::*;
        let bump = model(COUNTER, &["bump", "bump"]);
        let (w1, w2) = (bump.atom(1, 0).unwrap(), bump.atom(3, 0).unwrap());
        assert_certified(&bump, EventualConsistency, &[(w2, 0, true), (w1, 2, true)]);
        assert_certified(&bump, EventualConsistency, &[(w1, 0, true)]);
        assert_certified(&bump, Serializable, &[(w2, 0, false), (w1, 2, false)]);
        // The second read sees W1 and the first read sees the second's
        // read event: the observer chain relays W1 into the first read's
        // own past, which the session negates.
        let r2 = bump.atom(2, 0).unwrap();
        assert_certified(&bump, CausalConsistency, &[(w1, 2, true), (r2, 0, true)]);
        let m = model(TWO_WRITES, &["wr", "rd"]);
        let (x, y) = (m.cmds[0].records[0], m.cmds[1].records[0]);
        let (a1, a2) = (m.atom(0, x).unwrap(), m.atom(1, y).unwrap());
        assert_certified(&m, CausalConsistency, &[(a2, 3, true), (a1, 3, false)]);
        assert_certified(&m, RepeatableRead, &[(a1, 4, true), (a1, 2, false)]);
        let skew = "schema K { k_id: int key, v: int }
             txn t1(a: int, b: int) {
                 x := select v from K where k_id = a;
                 update K set v = x.v + 1 where k_id = b;
                 return 0;
             }
             txn t2(b: int, c: int) {
                 x := select v from K where k_id = b;
                 update K set v = x.v + 1 where k_id = c;
                 return 0;
             }
             txn t3(c: int, a: int) {
                 x := select v from K where k_id = c;
                 update K set v = x.v + 1 where k_id = a;
                 return 0;
             }";
        let sums = summarize_program(&atropos_dsl::parse(skew).unwrap());
        let trio = [&sums[0], &sums[1], &sums[2]];
        let m = InstanceModel::new_multi(&trio);
        let queries = candidate_queries(&trio, &m);
        assert!(!queries.is_empty());
        for reqs in &queries {
            assert_certified(&m, Serializable, reqs);
        }
    }

    /// The chain walk decides and orders exactly like [`topological`] over
    /// the full edge list, on every query the templates ask of every
    /// ordered pair of the ten corpus programs and of every fourth
    /// program's trios, at EC, CC and RR: the same cycle verdict and, when
    /// acyclic, the same smallest-index-first order. No template query
    /// closes a cycle on the corpus, so each group also gets one cyclic
    /// probe per ordered pair of instances: the last atom of each made
    /// visible to the other's first command.
    #[test]
    fn chain_walk_orders_like_the_transitive_edge_list() {
        use ConsistencyLevel::*;
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/corpus");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("the corpus directory")
            .map(|e| e.expect("a corpus entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "dsl"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 10);
        let (mut queries, mut cyclic, mut crossing) = (0, 0, 0);
        for (p, path) in paths.iter().enumerate() {
            let text = std::fs::read_to_string(path).expect("a corpus file");
            let sums = summarize_program(&atropos_dsl::parse(&text).expect("corpus parses"));
            let t = sums.len();
            let mut groups: Vec<Vec<&TxnSummary>> = Vec::new();
            for i in 0..t {
                for j in 0..t {
                    groups.push(vec![&sums[i], &sums[j]]);
                }
            }
            if p % 4 == 0 {
                for i in 0..t {
                    for j in i + 1..t {
                        for k in j + 1..t {
                            groups.push(vec![&sums[i], &sums[j], &sums[k]]);
                        }
                    }
                }
            }
            for members in &groups {
                let m = InstanceModel::new_multi(members);
                let mut all = candidate_queries(members, &m);
                let last_atom = |x: usize| {
                    let cmds = m.starts[x]..m.starts[x + 1];
                    m.atoms.iter().rposition(|a| cmds.contains(&a.cmd))
                };
                for x in 0..m.instances() {
                    for y in (0..m.instances()).filter(|&y| y != x) {
                        if let (Some(a), Some(b)) = (last_atom(x), last_atom(y)) {
                            all.push(vec![(a, m.starts[y], true), (b, m.starts[x], true)]);
                        }
                    }
                }
                for level in [EventualConsistency, CausalConsistency, RepeatableRead] {
                    let mut closure = Closure::new(&m, level);
                    for reqs in &all {
                        queries += 1;
                        let closed = closure.close(&m, reqs);
                        let walked = closure.walk();
                        let listed = topological(m.cmds.len(), closure.edges(&m));
                        assert_eq!(walked, listed, "{path:?} @ {level}: {reqs:?}");
                        cyclic += usize::from(matches!(closed, Err(Conflict::Cycle)));
                        crossing += usize::from(closed.is_ok() && !closure.derived.is_empty());
                    }
                }
            }
        }
        assert!(queries > 1_000, "{queries} queries");
        assert!(
            cyclic > 0 && crossing > 0,
            "{cyclic} cyclic, {crossing} crossing"
        );
    }
}
