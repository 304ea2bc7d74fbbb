//! The detection driver: one plan/solve/merge loop over a batch of
//! programs, with the dirty instance groups fanned out over a worker pool
//! and merged deterministically.
//!
//! The paper's detection formulation makes every bounded group of
//! transaction instances an independent satisfiability query, so the
//! re-solved ("dirty") groups of a cached detection pass are
//! embarrassingly parallel — the ordered pairs of the two-instance bound
//! and the unordered triples of [`DetectMode::Triples`] alike. A
//! [`DetectionEngine`] owns the parallelism policy — a worker count from
//! [`DetectionEngine::new`], the `ATROPOS_THREADS` environment variable,
//! or the machine's available parallelism — and every pass, over one
//! program ([`DetectionEngine::detect_with_mode`]) or a whole corpus
//! ([`crate::analyse_corpus`]), runs the same three phases:
//!
//! 1. **Plan** (serial): summarize every program, fingerprint every
//!    transaction and cut every ordered pair into its two conflict slices
//!    (each member's commands on tables the other accesses, see
//!    [`crate::cache`]), and look every slot — each ordered pair, keyed by
//!    its slices, and, in triple mode, each unordered triple of distinct
//!    transactions — up in the verdict cache under its `GroupKey`. A miss
//!    becomes a work item unless an earlier slot (of any program in the
//!    batch) already planned its key; statically template-free triples are
//!    settled with an empty verdict without ever grounding a model.
//! 2. **Solve** (parallel): `std::thread::scope` workers drain the work
//!    items from a queue, each item to exactly one worker. A worker grounds
//!    the item's model over the slot's slices and decides its queries by
//!    closure with the one solve frame every bound shares. No worker
//!    touches the session.
//! 3. **Merge** (serial, deterministic): verdicts are inserted into the
//!    cache **in plan order**, not in completion order, and every slot is
//!    then answered from the cache, its findings
//!    mapped from slice positions to its members' commands and labelled by
//!    its own program. The output — verdicts, the entire [`DetectStats`]
//!    and [`crate::CacheStats`] except wall-clock seconds, and every
//!    downstream repair decision — is byte-identical at any thread count
//!    (pinned by `tests/parallel_determinism.rs`, `tests/triple_vs_pair.rs`
//!    and `tests/corpus_differential.rs`) and for a program alone or
//!    inside any corpus (`tests/corpus_differential.rs`).
//!
//! With one thread the scope is skipped and phase 2 runs inline. This
//! driver is the only way detection runs: [`crate::detect_anomalies`] is
//! a serial engine over a fresh session, and the repair loop's
//! from-scratch reference is the same engine with a fresh session per pass.
//! The engine itself keeps nothing between passes: whatever one pass
//! leaves for the next lives in the session.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

use atropos_dsl::Program;

use crate::cache::{GroupKey, ProgramKeys, MAX_K};
use crate::corpus::CorpusStats;
use crate::detect::{accumulate, solve_group, AccessPair, DetectStats, Finding};
use crate::encode::ConsistencyLevel;
use crate::model::{summarize_program, TxnSummary};
use crate::session::DetectSession;
use crate::triple::has_candidates;

/// Which bounded execution skeleton a detection pass grounds its anomaly
/// queries over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DetectMode {
    /// The paper's **two-instance** bound: the four pair templates only.
    /// The default, and the bound of [`crate::detect_anomalies`].
    #[default]
    Pairs,
    /// The two-instance bound *plus* the bounded **three-instance** chain
    /// templates of [`crate::triple`] (observer chain, circular write
    /// skew, fractured-read chain). Verdicts are a superset of
    /// [`DetectMode::Pairs`] by construction: the pair phase runs
    /// unchanged and the triple phase only ever appends.
    Triples,
}

impl std::fmt::Display for DetectMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DetectMode::Pairs => "pairs",
            DetectMode::Triples => "triples",
        })
    }
}

/// Policy for cached detection passes: the worker count and whether UNSAT
/// verdicts carry proof certificates. Two plain fields and no state:
/// callers typically build **one engine per sweep** and share it, and
/// everything a pass leaves behind (its verdicts) lives in the
/// [`DetectSession`].
///
/// # Examples
///
/// ```
/// use atropos_detect::{ConsistencyLevel, DetectMode, DetectionEngine, DetectSession};
///
/// let p = atropos_dsl::parse(
///     "schema T { id: int key, v: int }
///      txn bump(k: int) {
///          x := select v from T where id = k;
///          update T set v = x.v + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let (engine, ec) = (DetectionEngine::new(2), ConsistencyLevel::EventualConsistency);
/// let mut session = DetectSession::new();
/// let (first, _) = engine.detect_with_mode(&p, ec, DetectMode::Pairs, &mut session);
/// assert_eq!(first.len(), 1); // the lost update
/// // Same program again: answered entirely from the session's warm cache.
/// let (again, stats) = engine.detect_with_mode(&p, ec, DetectMode::Pairs, &mut session);
/// assert_eq!(again, first);
/// assert_eq!(stats.queries, 0);
/// ```
#[derive(Debug, Clone)]
pub struct DetectionEngine {
    threads: usize,
    /// Whether UNSAT verdicts capture proof certificates.
    proofs: bool,
}

impl DetectionEngine {
    /// An engine solving dirty groups on `threads` workers (clamped to at
    /// least 1), with proof capture off. Thread count never affects
    /// results, only wall-clock.
    pub fn new(threads: usize) -> DetectionEngine {
        DetectionEngine {
            threads: threads.max(1),
            proofs: false,
        }
    }

    /// Returns the engine unchanged. An inert shim, kept only because the
    /// pipeline benchmark still calls it: solvers share no learnt clauses,
    /// so there is nothing to switch.
    pub fn with_learnt_pool(self, _: bool) -> DetectionEngine {
        self
    }

    /// Enables or disables proof-certificate capture on this engine (off
    /// for a new engine); this is the only switch. With proofs on, every
    /// UNSAT query behind a verdict is logged and certified; the blobs are
    /// stored alongside the verdict entries in the session (see
    /// [`DetectSession::proof_blobs`]). Like the thread count,
    /// certificates never change verdicts.
    pub fn with_proofs(mut self, enabled: bool) -> DetectionEngine {
        self.proofs = enabled;
        self
    }

    /// Whether this engine captures proof certificates.
    pub fn proofs_enabled(&self) -> bool {
        self.proofs
    }

    /// The strictly serial engine (`threads = 1`).
    pub fn serial() -> DetectionEngine {
        DetectionEngine::new(1)
    }

    /// An engine honouring the `ATROPOS_THREADS` environment variable
    /// (clamped to at least 1, exactly like [`DetectionEngine::new`] — so
    /// `ATROPOS_THREADS=0` means serial, not "use the default"), falling
    /// back to the machine's available parallelism (capped at 8 —
    /// dirty-pair batches rarely feed more workers than that).
    pub fn from_env() -> DetectionEngine {
        let configured = std::env::var("ATROPOS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        DetectionEngine::new(configured.unwrap_or_else(default_threads))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// One cached detection pass over `program` at `level` under `mode`,
    /// answering untouched pairs (and, in triple mode, triples) from the
    /// session's verdict cache and fanning the dirty remainder out over
    /// this engine's workers.
    ///
    /// In [`DetectMode::Pairs`] this is verdict-identical to
    /// [`crate::detect_anomalies`]; in [`DetectMode::Triples`] the result
    /// is a superset of the pair verdicts. Both are byte-identical to
    /// themselves at every thread count; see the module docs for the
    /// three-phase structure and the determinism argument. The statistics
    /// carry the slot counts, the solve counters and the wall-clock
    /// seconds of the pass.
    pub fn detect_with_mode(
        &self,
        program: &Program,
        level: ConsistencyLevel,
        mode: DetectMode,
        session: &mut DetectSession,
    ) -> (Vec<AccessPair>, DetectStats) {
        let (mut out, batch) = detect_batch(self, &[program], level, mode, session);
        let (verdicts, mut stats) = out.pop().expect("one program in, one verdict out");
        stats += batch.solve;
        stats.seconds = batch.seconds;
        (verdicts, stats)
    }
}

/// Smallest dirty-item batch worth one worker thread: below this, the
/// spawn/join overhead rivals the grounding and closure work itself and
/// the pass runs inline. Thread count never affects verdicts, so this is purely a
/// scheduling knob.
const MIN_PAIRS_PER_WORKER: usize = 4;

/// Default worker count when `ATROPOS_THREADS` is unset.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// One planned slot of a pass: the transactions of its program that fill
/// the group's members, in key orientation, the ids of their slices in
/// the program's [`ProgramKeys`], and the group's key. A pair's members
/// are its two conflict slices; a triple's are whole transactions.
#[derive(Clone, Copy)]
struct Slot {
    members: [usize; MAX_K],
    slices: [usize; MAX_K],
    key: GroupKey,
}

impl Slot {
    /// The slot's members as summaries of its program, in key orientation.
    fn members<'a>(&self, sums: &'a [TxnSummary]) -> Vec<&'a TxnSummary> {
        self.members[..self.key.k()]
            .iter()
            .map(|&i| &sums[i])
            .collect()
    }

    /// The slot's members as its group's model grounds them: each cut to
    /// its slice.
    fn grounded<'a>(&self, sums: &'a [TxnSummary], keys: &ProgramKeys) -> Vec<Cow<'a, TxnSummary>> {
        (0..self.key.k())
            .map(|m| keys.slice(self.slices[m]).summary(&sums[self.members[m]]))
            .collect()
    }

    /// The slot's raw verdicts: its group's `findings`, whose commands are
    /// slice positions, mapped through the slices and labelled by the
    /// slot's own program.
    fn answer(
        &self,
        findings: &[Finding],
        sums: &[TxnSummary],
        keys: &ProgramKeys,
    ) -> Vec<AccessPair> {
        let ts = self.members.map(|i| &sums[i]);
        let kept = self.slices.map(|s| keys.slice(s).kept.as_slice());
        let at = |m: usize, c: usize| kept[m].get(c).copied();
        findings
            .iter()
            .filter_map(|f| f.emit_at(&ts[..self.key.k()], at))
            .collect()
    }
}

/// Solves `items` on up to `threads` scoped workers, each item claimed
/// by exactly one worker (inline when the batch is too small to feed more
/// than one — incremental repair's later passes dirty a handful of items,
/// and paying a spawn/join round-trip for them would hand the serial
/// driver a regression). Returns the outcomes indexed like `items`, never
/// in completion order.
fn run_pool<T: Sync, O: Send>(
    threads: usize,
    items: &[T],
    solve: impl Fn(&T) -> O + Sync,
) -> Vec<O> {
    let n = items.len();
    let workers = threads.min(n / MIN_PAIRS_PER_WORKER).max(1);
    if workers <= 1 {
        return items.iter().map(solve).collect();
    }
    let queue = Mutex::new(items.iter().enumerate());
    let (solve, queue) = (&solve, &queue);
    let mut outcomes: Vec<Option<O>> = Vec::with_capacity(n);
    outcomes.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // A statement of its own, so the guard is dropped
                        // before the solve, not held through it.
                        let next = queue.lock().expect("work queue poisoned").next();
                        let Some((k, item)) = next else {
                            return out;
                        };
                        out.push((k, solve(item)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (k, o) in h.join().expect("detection worker panicked") {
                outcomes[k] = Some(o);
            }
        }
    });
    outcomes
        .into_iter()
        .map(|o| o.expect("every item was solved"))
        .collect()
}

/// Every slot of one program in plan order: each ordered pair (the
/// symmetric template runs for `i <= j`), keyed by its members' conflict
/// slices, then — in triple mode — each unordered triple of distinct
/// transactions, its members reordered into key orientation (ascending
/// fingerprint; ties, only possible between identical summaries, broken
/// by index). Everything downstream — the cache key, the static
/// prefilter, the grounded model — works in that one orientation, so a
/// verdict keyed here can never be replayed against members in a
/// different order.
fn plan_slots(keys: &ProgramKeys, level: ConsistencyLevel, mode: DetectMode) -> Vec<Slot> {
    let n = keys.transactions();
    let mut slots = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let [a, b] = keys.pair(i, j);
            let key = GroupKey::new(&[keys.slice(a).fp, keys.slice(b).fp], i <= j, level);
            slots.push(Slot {
                members: [i, j, 0],
                slices: [a, b, 0],
                key,
            });
        }
    }
    if mode == DetectMode::Triples {
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    let mut idx = [i, j, k];
                    idx.sort_unstable_by_key(|&x| (keys.fp(x), x));
                    let key = GroupKey::new(&idx.map(|x| keys.fp(x)), false, level);
                    slots.push(Slot {
                        members: idx,
                        slices: idx.map(|x| keys.identity(x)),
                        key,
                    });
                }
            }
        }
    }
    slots
}

/// The one detection driver behind [`DetectionEngine::detect_with_mode`]
/// and [`crate::analyse_corpus`]: plans every program's slots against one
/// group keyspace, dedups the misses across the whole batch, solves them
/// in one worker-pool batch, merges in plan order, and answers every slot
/// from the session under its own program's labels. Returns each
/// program's verdicts with its slot counts (`pairs`, `triples`; the solve
/// counters stay zero) and the batch statistics, whose `solve` carries the
/// solve counters of the whole batch.
pub(crate) fn detect_batch(
    engine: &DetectionEngine,
    programs: &[&Program],
    level: ConsistencyLevel,
    mode: DetectMode,
    session: &mut DetectSession,
) -> (Vec<(Vec<AccessPair>, DetectStats)>, CorpusStats) {
    let started = Instant::now();
    let mut batch = CorpusStats::default();

    // Plan (serial): summarize and fingerprint everything, then one lookup
    // per slot: a hit is answered on the spot, a miss once its key is
    // solved (each key is planned once).
    let sums: Vec<Vec<TxnSummary>> = programs.iter().map(|p| summarize_program(p)).collect();
    let keys: Vec<ProgramKeys> = sums.iter().map(|s| ProgramKeys::new(s)).collect();
    let mut planned: HashSet<GroupKey> = HashSet::new();
    // The first slot (with its program) of every planned key.
    let mut misses: Vec<(usize, Slot)> = Vec::new();
    // Statically template-free triples: settled empty, never grounded.
    let mut settled: Vec<(usize, Slot)> = Vec::new();
    // Per program, every slot with its answer if it hit.
    let mut slots: Vec<Vec<(Slot, Option<Vec<AccessPair>>)>> = Vec::with_capacity(programs.len());
    for (prog, pkeys) in keys.iter().enumerate() {
        let mut plan = Vec::new();
        for slot in plan_slots(pkeys, level, mode) {
            let hit = session
                .lookup(&slot.key)
                .map(|e| slot.answer(&e.findings, &sums[prog], pkeys));
            let first_miss = hit.is_none() && planned.insert(slot.key);
            plan.push((slot, hit));
            if !first_miss {
                continue;
            }
            let free = slot.key.k() == 3 && {
                let ts = slot.members(&sums[prog]);
                let f = slot.key.fps();
                !has_candidates([ts[0], ts[1], ts[2]], [f[0], f[1], f[2]])
            };
            if free {
                settled.push((prog, slot));
            } else {
                misses.push((prog, slot));
            }
        }
        slots.push(plan);
    }
    batch.unique_pairs = misses.iter().filter(|(_, m)| m.key.k() == 2).count() as u64;
    batch.unique_triples = misses.len() as u64 - batch.unique_pairs;

    // Solve (parallel): each unique key exactly once, each on the one
    // worker that claims its item. An outcome holds the group's findings,
    // its solve counters and the certificates of its UNSAT queries.
    let outcomes = run_pool(engine.threads(), &misses, |&(prog, slot)| {
        let grounded = slot.grounded(&sums[prog], &keys[prog]);
        let ts: Vec<&TxnSummary> = grounded.iter().map(|t| t.as_ref()).collect();
        let (fps, symmetric) = (slot.key.fps(), slot.key.symmetric);
        solve_group(&ts, fps, symmetric, level, engine.proofs_enabled())
    });

    // Merge (serial, plan order): insert verdicts in the serial work order,
    // whatever order the workers finished in.
    for ((prog, m), (findings, stats, proofs)) in misses.iter().zip(outcomes) {
        batch.solve += stats;
        session.insert(m.key, &m.members(&sums[*prog]), findings, proofs);
    }
    for (prog, m) in settled {
        session.insert(m.key, &m.members(&sums[prog]), Vec::new(), Vec::new());
    }

    // Answer (serial): the missed slots from the merged session, each
    // labelled by its own program, and every slot folded in slot order —
    // merge order is part of the oracle's observable behaviour (see
    // `accumulate`).
    let verdicts: Vec<(Vec<AccessPair>, DetectStats)> = slots
        .into_iter()
        .enumerate()
        .map(|(prog, plan)| {
            let pairs = plan.iter().filter(|(s, _)| s.key.k() == 2).count() as u64;
            let stats = DetectStats {
                pairs,
                triples: plan.len() as u64 - pairs,
                ..DetectStats::default()
            };
            let mut found = BTreeMap::new();
            for (slot, hit) in plan {
                let pairs = hit.unwrap_or_else(|| {
                    let e = session
                        .entry(&slot.key)
                        .expect("every missed key was solved");
                    slot.answer(&e.findings, &sums[prog], &keys[prog])
                });
                accumulate(&mut found, pairs);
            }
            (found.into_values().collect(), stats)
        })
        .collect();
    batch.pair_slots = verdicts.iter().map(|(_, s)| s.pairs).sum();
    batch.triple_slots = verdicts.iter().map(|(_, s)| s.triples).sum();
    batch.seconds = started.elapsed().as_secs_f64();
    (verdicts, batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect_anomalies_fresh, AnomalyKind};
    use atropos_dsl::parse;

    const TWO_TXNS: &str = "schema T { id: int key, v: int, w: int }
         txn bump(k: int) {
             @R x := select v from T where id = k;
             @W update T set v = x.v + 1 where id = k;
             return 0;
         }
         txn audit(k: int) {
             @A1 y := select v, w from T where id = k;
             @A2 z := select v from T where id = k;
             return y.v + z.v;
         }";

    #[test]
    fn engine_matches_plain_detection_at_every_thread_count() {
        let p = parse(TWO_TXNS).unwrap();
        for level in ConsistencyLevel::ALL {
            let (reference, _) = detect_anomalies_fresh(&p, level);
            for threads in [1, 2, 8] {
                let engine = DetectionEngine::new(threads);
                let mut session = DetectSession::new();
                let (got, stats) =
                    engine.detect_with_mode(&p, level, DetectMode::Pairs, &mut session);
                assert_eq!(got, reference, "{threads} threads @ {level}");
                assert_eq!(stats.pairs, 4);
                // Warm second pass: zero queries, same verdicts.
                let (again, warm) =
                    engine.detect_with_mode(&p, level, DetectMode::Pairs, &mut session);
                assert_eq!(again, reference);
                assert_eq!(warm.queries, 0);
            }
        }
    }

    /// The causal-consistency argument for slicing, pinned: each session
    /// has a command its partner's slice drops (`logB`, `peekC`: tables
    /// the partner never touches) between two commands it keeps. A model
    /// of the sliced pair extends to the full pair by placing the dropped
    /// command by program order, and a foreign command sees it exactly
    /// when it sees the kept command after it. So the engine, which
    /// grounds the slices, must agree with the fresh oracle, which grounds
    /// whole transactions, at every level. It must also stay warm when
    /// only a dropped command changes.
    #[test]
    fn sliced_pairs_match_the_fresh_oracle_around_dropped_commands() {
        let src = "schema A { id: int key, x: int, y: int }
             schema B { id: int key, w: int }
             schema C { id: int key, z: int }
             txn writer(k: int) {
                 @W1 update A set x = 1 where id = k;
                 @logB update B set w = 1 where id = k;
                 @W2 update A set y = 2 where id = k;
                 return 0;
             }
             txn reader(k: int) {
                 @R1 a := select x, y from A where id = k;
                 @peekC c := select z from C where id = k;
                 @R2 b := select x, y from A where id = k;
                 return a.x + b.y + c.z;
             }";
        let p = parse(src).unwrap();
        let sums = summarize_program(&p);
        let keys = ProgramKeys::new(&sums);
        let [w, r] = keys.pair(0, 1);
        assert_eq!(
            keys.slice(w).kept,
            [0, 2],
            "logB is dropped from writer × reader"
        );
        assert_eq!(
            keys.slice(r).kept,
            [0, 2],
            "peekC is dropped from reader × writer"
        );
        let ec = ConsistencyLevel::EventualConsistency;
        let cc = ConsistencyLevel::CausalConsistency;
        let (at_ec, at_cc) = (
            detect_anomalies_fresh(&p, ec).0,
            detect_anomalies_fresh(&p, cc).0,
        );
        let nmr = |a: &AccessPair| a.kind == AnomalyKind::NonMonotonicRead;
        assert!(
            at_ec.iter().any(nmr) && !at_cc.iter().any(nmr),
            "CC must rule out a reading that EC allows: EC {at_ec:?}, CC {at_cc:?}"
        );
        let engine = DetectionEngine::serial();
        let mut session = DetectSession::new();
        for level in ConsistencyLevel::ALL {
            let (got, _) = engine.detect_with_mode(&p, level, DetectMode::Pairs, &mut session);
            assert_eq!(got, detect_anomalies_fresh(&p, level).0, "{level}");
        }
        // Widening the dropped commands re-keys both self-pairs but neither
        // cross slice: the cross pairs hit, and the verdicts still equal
        // the fresh oracle.
        let edited = parse(
            &src.replace("w: int }", "w: int, v: int }")
                .replace("set w = 1", "set w = 1, v = 2")
                .replace("z: int }", "z: int, q: int }")
                .replace("select z from C", "select z, q from C"),
        )
        .unwrap();
        for level in ConsistencyLevel::ALL {
            let before = session.cache_stats();
            let (got, _) = engine.detect_with_mode(&edited, level, DetectMode::Pairs, &mut session);
            assert_eq!(got, detect_anomalies_fresh(&edited, level).0, "{level}");
            let delta = session.cache_stats().since(&before);
            assert_eq!((delta.hits, delta.misses), (2, 2), "{level}: {delta:?}");
        }
    }

    #[test]
    fn thread_count_clamps_and_env_parses() {
        assert_eq!(DetectionEngine::new(0).threads(), 1);
        assert_eq!(DetectionEngine::serial().threads(), 1);
        assert!(DetectionEngine::from_env().threads() >= 1);
    }

    /// The 3-hop relay program: pair mode reports it clean at EC, triple
    /// mode surfaces the observer chain — and the triple verdicts cache.
    const RELAY: &str = "schema MSG { m_id: int key, m_body: string }
         schema FEED { f_id: int key, f_body: string }
         txn post(m: int, body: string) {
             @W1 update MSG set m_body = body where m_id = m;
             return 0;
         }
         txn relay(m: int, f: int) {
             @R2 x := select m_body from MSG where m_id = m;
             @W2 update FEED set f_body = x.m_body where f_id = f;
             return 0;
         }
         txn timeline(f: int, m: int) {
             @R3 y := select f_body from FEED where f_id = f;
             @R4 z := select m_body from MSG where m_id = m;
             return 0;
         }";

    #[test]
    fn triple_mode_extends_pair_mode_and_caches() {
        let p = parse(RELAY).unwrap();
        let ec = ConsistencyLevel::EventualConsistency;
        let engine = DetectionEngine::serial();
        let mut session = DetectSession::new();
        let (pairs_only, _) = engine.detect_with_mode(&p, ec, DetectMode::Pairs, &mut session);
        assert!(pairs_only.is_empty(), "pair oracle is blind here: {pairs_only:?}");
        let (with_triples, stats) =
            engine.detect_with_mode(&p, ec, DetectMode::Triples, &mut session);
        assert_eq!(stats.triples, 1, "one unordered triple of 3 txns");
        assert_eq!(with_triples.len(), 1);
        assert_eq!(with_triples[0].kind, AnomalyKind::ObserverChain);
        // Superset: every pair verdict survives in triple mode.
        for p in &pairs_only {
            assert!(with_triples.contains(p));
        }
        // Warm triple pass: the triple verdict replays without a query.
        let (again, warm) = engine.detect_with_mode(&p, ec, DetectMode::Triples, &mut session);
        assert_eq!(again, with_triples);
        assert_eq!(warm.queries, 0);
        assert!(session.cache_stats().triple_hits > 0);
    }

    /// A triple verdict is keyed (and grounded) in the canonical
    /// fingerprint orientation, so a session shared across two programs
    /// that declare the same three transactions in *different order* must
    /// replay it correctly — not against reshuffled instance spans.
    #[test]
    fn retained_triple_states_survive_transaction_reordering() {
        let forward = parse(RELAY).unwrap();
        // The same three transactions, declared in reverse order.
        let mut reversed = forward.clone();
        reversed.transactions.reverse();
        let engine = DetectionEngine::serial();
        let mut session = DetectSession::new();
        // Prime the session via the forward program at EC…
        let (ec_fwd, _) =
            engine.detect_with_mode(&forward, ConsistencyLevel::EventualConsistency,
                DetectMode::Triples, &mut session);
        // …then query the reversed program at another level: the verdict
        // cache misses (different level) and the triple is solved afresh.
        let (cc_rev, _) = engine.detect_with_mode(&reversed,
            ConsistencyLevel::CausalConsistency, DetectMode::Triples, &mut session);
        let mut fresh = DetectSession::new();
        let (cc_ref, _) = engine.detect_with_mode(&reversed,
            ConsistencyLevel::CausalConsistency, DetectMode::Triples, &mut fresh);
        assert_eq!(cc_rev, cc_ref);
        // And the reversed program's EC pass replays the forward verdict.
        let before = session.cache_stats();
        let (ec_rev, stats) = engine.detect_with_mode(&reversed,
            ConsistencyLevel::EventualConsistency, DetectMode::Triples, &mut session);
        assert_eq!(ec_rev, ec_fwd);
        assert_eq!(stats.queries, 0, "orientation-normalized entries replay");
        assert!(session.cache_stats().since(&before).triple_hits > 0);
    }

    #[test]
    fn triple_mode_is_thread_count_invariant_here() {
        let p = parse(RELAY).unwrap();
        for level in ConsistencyLevel::ALL {
            let mut reference: Option<Vec<AccessPair>> = None;
            for threads in [1, 2, 8] {
                let engine = DetectionEngine::new(threads);
                let mut session = DetectSession::new();
                let (got, _) =
                    engine.detect_with_mode(&p, level, DetectMode::Triples, &mut session);
                match &reference {
                    None => reference = Some(got),
                    Some(exp) => assert_eq!(&got, exp, "{threads} threads @ {level}"),
                }
            }
        }
    }
}
