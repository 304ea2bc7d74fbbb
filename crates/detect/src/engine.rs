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
//!    transaction, sweep the cache's liveness union, and look every slot —
//!    each ordered pair and, in triple mode, each unordered triple of
//!    distinct transactions — up in the verdict cache under its
//!    `GroupKey`. A miss becomes a work item unless an earlier slot (of
//!    any program in the batch) already planned its key; statically
//!    template-free triples are settled with an empty verdict without
//!    ever grounding a model.
//! 2. **Solve** (parallel): `std::thread::scope` workers drain the work
//!    list through an atomic cursor. Each worker takes the item's retained
//!    `GroupState` from the sharded retention map (states migrate freely
//!    between workers — they are `Send`), solves it with the one solve
//!    frame every bound shares, and returns the state to its shard.
//! 3. **Merge** (serial, deterministic): verdicts are inserted into the
//!    cache **in plan order**, not in completion order, and every slot is
//!    then answered from the cache, labelled by its own program. The
//!    output — verdicts, the entire [`DetectStats`] except wall-clock
//!    seconds, and every downstream repair decision — is byte-identical at
//!    any thread count (pinned by `tests/parallel_determinism.rs` and
//!    `tests/triple_vs_pair.rs` on all nine workloads) and for a program
//!    alone or inside any corpus (`tests/corpus_differential.rs`).
//!
//! With one thread the scope is skipped and phase 2 runs inline. This
//! driver is the only way detection runs: [`crate::detect_anomalies`] is
//! a serial engine over a fresh session, and the repair loop's
//! from-scratch reference is the same engine with a fresh session per pass.
//! The engine itself keeps nothing between passes: whatever one pass
//! leaves for the next lives in the session.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use atropos_dsl::Program;

use crate::cache::{txn_fingerprint, GroupKey, GroupState, MAX_K};
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
/// everything a pass leaves behind (verdicts, retained solvers) lives in
/// the [`DetectSession`].
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
/// spawn/join overhead rivals the SAT work itself and the pass runs
/// inline. Thread count never affects verdicts, so this is purely a
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
/// the group's members, in key orientation, and the group's key.
#[derive(Clone, Copy)]
struct Slot {
    members: [usize; MAX_K],
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

    /// The slot's raw verdicts: its group's `findings` labelled by the
    /// slot's own program.
    fn answer(&self, findings: &[Finding], sums: &[TxnSummary]) -> Vec<AccessPair> {
        let ts = self.members.map(|i| &sums[i]);
        findings
            .iter()
            .filter_map(|f| f.emit(&ts[..self.key.k()]))
            .collect()
    }
}

/// The outcome of solving one dirty work item, produced on whatever worker
/// claimed it and merged on the coordinating thread.
struct Outcome {
    findings: Vec<Finding>,
    stats: DetectStats,
    solver_reused: bool,
    /// Proof certificates of this item's UNSAT queries (empty when proof
    /// capture is off), stored with the verdict at the merge point.
    proofs: Vec<Vec<u8>>,
}

/// Drains `items` through an atomic work cursor on up to `threads` scoped
/// workers (inline when the batch is too small to feed more than one —
/// incremental repair's later passes dirty a handful of items, and paying
/// a spawn/join round-trip for them would hand the serial driver a
/// regression). Returns the outcomes indexed like `items`, never in
/// completion order.
fn run_pool<T: Sync>(
    threads: usize,
    items: &[T],
    solve: impl Fn(&T) -> Outcome + Sync,
) -> Vec<Outcome> {
    let workers = threads.min(items.len() / MIN_PAIRS_PER_WORKER).max(1);
    if workers <= 1 {
        return items.iter().map(solve).collect();
    }
    let next = AtomicUsize::new(0);
    let (solve, next) = (&solve, &next);
    let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(items.len());
    outcomes.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= items.len() {
                            return out;
                        }
                        out.push((k, solve(&items[k])));
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
/// symmetric template runs for `i <= j`), then — in triple mode — each
/// unordered triple of distinct transactions, its members reordered into
/// key orientation (ascending fingerprint; ties, only possible between
/// identical summaries, broken by index). Everything downstream — the
/// cache key, the static prefilter, the grounded model, retained states —
/// works in that one orientation, so a state keyed here can never be
/// replayed against members in a different order.
fn plan_slots(fps: &[u64], level: ConsistencyLevel, mode: DetectMode) -> Vec<Slot> {
    let n = fps.len();
    let mut slots = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let key = GroupKey::new(&[fps[i], fps[j]], i <= j, level);
            slots.push(Slot {
                members: [i, j, 0],
                key,
            });
        }
    }
    if mode == DetectMode::Triples {
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    let mut idx = [i, j, k];
                    idx.sort_unstable_by_key(|&x| (fps[x], x));
                    let key = GroupKey::new(&idx.map(|x| fps[x]), false, level);
                    slots.push(Slot { members: idx, key });
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
    let mut batch = CorpusStats {
        programs: programs.len(),
        ..CorpusStats::default()
    };

    // Plan (serial): summarize and fingerprint everything and fold the
    // whole batch into the liveness union *first* (so no program's slots
    // sweep another's entries) — an entry the sweep keeps is guaranteed to
    // hit below. Then one lookup per slot: a hit is answered on the spot,
    // a miss once its key is solved (each key is planned once).
    let sums: Vec<Vec<TxnSummary>> = programs.iter().map(|p| summarize_program(p)).collect();
    let fps: Vec<Vec<u64>> = sums
        .iter()
        .map(|s| s.iter().map(txn_fingerprint).collect())
        .collect();
    session.sweep_live(&fps.concat());
    let mut planned: HashSet<GroupKey> = HashSet::new();
    // The first slot (with its program) of every planned key.
    let mut misses: Vec<(usize, Slot)> = Vec::new();
    // Statically template-free triples: settled empty, never grounded.
    let mut settled: Vec<(usize, Slot)> = Vec::new();
    // Per program, every slot with its answer if it hit.
    let mut slots: Vec<Vec<(Slot, Option<Vec<AccessPair>>)>> = Vec::with_capacity(programs.len());
    for (prog, pfps) in fps.iter().enumerate() {
        let mut plan = Vec::new();
        for slot in plan_slots(pfps, level, mode) {
            let hit = session
                .lookup(&slot.key)
                .map(|e| slot.answer(&e.findings, &sums[prog]));
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

    // Solve (parallel): each unique key exactly once, against the shared
    // retained-state shards.
    let outcomes = run_pool(engine.threads(), &misses, |(prog, m)| {
        let ts = m.members(&sums[*prog]);
        let states = session.states();
        let mut state = states
            .take(&m.key.state())
            .unwrap_or_else(|| GroupState::new(&ts));
        let solver_reused = state.solver.is_some();
        let (findings, stats, proofs) = solve_group(
            &ts,
            m.key.fps(),
            m.key.symmetric,
            level,
            &mut state,
            engine.proofs_enabled(),
        );
        states.store(m.key.state(), state);
        Outcome {
            findings,
            stats,
            solver_reused,
            proofs,
        }
    });

    // Merge (serial, plan order): insert verdicts in the serial work
    // order, whatever order the workers finished in.
    for ((prog, m), o) in misses.iter().zip(outcomes) {
        session.stats_mut().solver_reuses += u64::from(o.solver_reused);
        batch.solve += o.stats;
        session.insert(m.key, &m.members(&sums[*prog]), o.findings, o.proofs);
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
                    slot.answer(&e.findings, &sums[prog])
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

    /// A retained triple `GroupState` is keyed (and grounded) in the canonical
    /// fingerprint orientation, so a session shared across two programs
    /// that declare the same three transactions in *different order* must
    /// replay the state correctly — not against reshuffled instance spans.
    #[test]
    fn retained_triple_states_survive_transaction_reordering() {
        let forward = parse(RELAY).unwrap();
        // The same three transactions, declared in reverse order.
        let mut reversed = forward.clone();
        reversed.transactions.reverse();
        let engine = DetectionEngine::serial();
        let mut session = DetectSession::new();
        // Prime retained triple state via the forward program at EC…
        let (ec_fwd, _) =
            engine.detect_with_mode(&forward, ConsistencyLevel::EventualConsistency,
                DetectMode::Triples, &mut session);
        // …then query the reversed program at another level: the verdict
        // cache misses (different level) and the retained state is reused.
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
