//! The repair algorithm (Fig. 10): oracle-guided, iterative elimination of
//! anomalous access pairs by command splitting, merging, redirecting, and
//! logging.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use atropos_detect::{
    AccessPair, AnomalyKind, CacheStats, ConsistencyLevel, DetectMode, DetectSession,
    DetectionEngine, ProgramSummary, WitnessDecoder,
};
use atropos_dsl::{
    check_program, visit_stmts_mut, CmdLabel, Expr, Program, Stmt, Transaction, UpdateCmd,
};
use atropos_semantics::{ThetaMap, ValueCorrespondence};

use crate::dce::{post_process, PostProcessReport};
use crate::merge::try_merging;
use crate::rewrite::{apply_logging, apply_redirect};

/// One applied refactoring, for the repair log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairStep {
    /// A mixed update was split into per-anomaly commands.
    Split {
        /// Original label.
        label: String,
        /// Labels of the fragments.
        into: Vec<String>,
    },
    /// Two commands were merged.
    Merge {
        /// Surviving label.
        kept: String,
        /// Removed label.
        removed: String,
    },
    /// Fields were moved between schemas (redirect rule).
    Redirect {
        /// Source schema.
        src: String,
        /// Target schema.
        dst: String,
        /// Moved fields.
        fields: Vec<String>,
    },
    /// A counter field was turned into a logging table (logger rule).
    Logging {
        /// Source schema.
        schema: String,
        /// Logged field.
        field: String,
        /// New logging schema name.
        log: String,
    },
    /// A relayed derivation was materialized onto the origin row
    /// ([`crate::chain::materialize_relay`], triple mode).
    Materialize {
        /// Schema the derived copy lived on.
        src: String,
        /// Origin schema it moved to.
        dst: String,
        /// Derived field (its name on `src`).
        field: String,
        /// Its minted name on `dst`.
        into: String,
    },
    /// A chain's middle hop was fused into the transaction feeding it
    /// ([`crate::chain::chain_cut`], triple mode).
    ChainCut {
        /// The relay transaction the hop was cut from.
        relay: String,
        /// The transaction the hop was fused into.
        host: String,
        /// Labels of the moved commands (minted under `.T`).
        moved: Vec<String>,
    },
}

impl std::fmt::Display for RepairStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairStep::Split { label, into } => write!(f, "split {label} into {into:?}"),
            RepairStep::Merge { kept, removed } => write!(f, "merge {removed} into {kept}"),
            RepairStep::Redirect { src, dst, fields } => {
                write!(f, "redirect {fields:?} from {src} to {dst}")
            }
            RepairStep::Logging { schema, field, log } => {
                write!(f, "log {schema}.{field} into {log}")
            }
            RepairStep::Materialize { src, dst, field, into } => {
                write!(f, "materialize {src}.{field} into {dst}.{into}")
            }
            RepairStep::ChainCut { relay, host, moved } => {
                write!(f, "cut chain: fuse {relay}'s {moved:?} into {host}")
            }
        }
    }
}

/// Configuration of the repair driver (the ablation switches correspond to
/// the paper's individual refactoring rules).
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Consistency level the oracle assumes (EC in the paper's Table 1).
    pub level: ConsistencyLevel,
    /// Detection bound the oracle grounds queries over. The default
    /// [`DetectMode::Pairs`] is the paper's two-instance skeleton;
    /// [`DetectMode::Triples`] additionally runs the bounded
    /// three-instance chain templates, so the repair loop also sees (and
    /// reports as `remaining` / [`RepairReport::unsafe_transactions`])
    /// observer-chain violations no pair can witness. Opt-in: triple
    /// detection grounds and decides every trio on each pass.
    pub mode: DetectMode,
    /// Enable command splitting in preprocessing.
    pub enable_split: bool,
    /// Enable the merge strategy.
    pub enable_merge: bool,
    /// Enable the redirect rule.
    pub enable_redirect: bool,
    /// Enable the logger rule.
    pub enable_logging: bool,
    /// Enable relay materialization (the `.T` chain rule consuming
    /// [`AnomalyKind::ObserverChain`] witnesses; only reachable in
    /// [`DetectMode::Triples`]).
    pub enable_materialize: bool,
    /// Enable the chain-cut merge (the `.T` chain rule consuming
    /// fractured-read / write-skew / residual observer-chain witnesses;
    /// only reachable in [`DetectMode::Triples`]).
    pub enable_chain_cut: bool,
    /// Run the post-processing pipeline (DCE, final merges, table drops).
    pub enable_postprocess: bool,
    /// Safety cap on repair iterations.
    pub max_iterations: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            level: ConsistencyLevel::EventualConsistency,
            mode: DetectMode::Pairs,
            enable_split: true,
            enable_merge: true,
            enable_redirect: true,
            enable_logging: true,
            enable_materialize: true,
            enable_chain_cut: true,
            enable_postprocess: true,
            max_iterations: 64,
        }
    }
}

impl RepairConfig {
    /// The rule-ablation sweep of the differential suites and the
    /// benchmark bins: the default configuration plus each refactoring
    /// rule disabled in turn.
    pub fn ablations() -> Vec<(&'static str, RepairConfig)> {
        let base = RepairConfig::default();
        vec![
            ("default", base.clone()),
            ("no-split", RepairConfig { enable_split: false, ..base.clone() }),
            ("no-merge", RepairConfig { enable_merge: false, ..base.clone() }),
            ("no-redirect", RepairConfig { enable_redirect: false, ..base.clone() }),
            ("no-logging", RepairConfig { enable_logging: false, ..base.clone() }),
            ("no-materialize", RepairConfig { enable_materialize: false, ..base.clone() }),
            ("no-chain-cut", RepairConfig { enable_chain_cut: false, ..base.clone() }),
            ("no-postprocess", RepairConfig { enable_postprocess: false, ..base }),
        ]
    }
}

/// Oracle work done by one detection pass of the repair loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairIteration {
    /// Ordered transaction pairs the pass examined.
    pub pairs: u64,
    /// Pairs answered from the verdict cache (zero on the scratch path).
    pub pairs_reused: u64,
    /// Pairs re-encoded and re-solved.
    pub pairs_solved: u64,
    /// Pattern queries the re-solved pairs asked of the closure.
    pub queries: u64,
    /// Transactions dirtied by the step applied on the strength of this
    /// pass's verdicts: those whose detector fingerprint the step changed,
    /// added or removed (empty when they drove no repair). When the loop
    /// reuses a pass's verdicts instead of re-detecting, the step still
    /// attributes here — to the pass that produced the verdicts — so each
    /// entry carries at most one step.
    pub dirtied_txns: Vec<String>,
    /// Wall-clock seconds spent in this detection pass.
    pub seconds: f64,
}

/// Instrumentation of one whole repair run: every detection pass the loop
/// performed (or skipped by reusing the previous verdict), plus the verdict
/// cache's lifetime counters.
#[derive(Debug, Clone, Default)]
pub struct RepairStats {
    /// One entry per detection pass actually run, in order (the initial
    /// pass, each loop re-detection, and the post-processing re-detection
    /// when needed); its length is the number of passes run.
    pub iterations: Vec<RepairIteration>,
    /// Detection passes avoided by reusing the previous pass's verdicts
    /// (the program had not changed since).
    pub detections_skipped: u64,
    /// Verdict-cache counters (all zero on the scratch path).
    pub cache: CacheStats,
    /// Initial dirty verdicts whose decoded witness schedule manifested
    /// its anomaly on the simulated cluster (witness replay; engine path
    /// only, zero on the scratch path).
    pub replay_manifested: u64,
    /// Initial verdicts that failed to decode or manifest on the original
    /// program — a detector/replay divergence, expected to stay zero.
    pub replay_failed: u64,
    /// Initial verdicts with no realizable (or no manifesting) witness
    /// left on the repaired program under the AT-SC marked set: the
    /// anomaly is suppressed.
    pub replay_suppressed: u64,
    /// Initial verdicts that still manifest on the repaired program —
    /// expected to stay zero after a successful repair.
    pub replay_surviving: u64,
    /// UNSAT proof certificates this run's detection passes banked in the
    /// session's verdict cache (engine path with the engine's proof
    /// logging on — see [`atropos_detect::DetectionEngine::with_proofs`];
    /// zero otherwise). Each is independently checkable with
    /// `atropos_proof::check_blob`.
    pub proof_certs: u64,
}

impl RepairStats {
    /// Total pairs answered from the cache across the run.
    pub fn pairs_reused(&self) -> u64 {
        self.iterations.iter().map(|i| i.pairs_reused).sum()
    }

    /// Total pairs re-encoded and re-solved across the run.
    pub fn pairs_solved(&self) -> u64 {
        self.iterations.iter().map(|i| i.pairs_solved).sum()
    }

    /// Fraction of pair analyses answered from the cache (0 on scratch).
    pub fn hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }
}

/// The outcome of repairing a program.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The original program.
    pub original: Program,
    /// The repaired program.
    pub repaired: Program,
    /// Anomalous pairs of the original program.
    pub initial: Vec<AccessPair>,
    /// Anomalous pairs remaining after repair.
    pub remaining: Vec<AccessPair>,
    /// Value correspondences introduced by the applied refactorings.
    pub vcs: Vec<ValueCorrespondence>,
    /// Applied refactorings, in order.
    pub steps: Vec<RepairStep>,
    /// Post-processing summary.
    pub post: PostProcessReport,
    /// Per-iteration oracle statistics.
    pub stats: RepairStats,
    /// Wall-clock time of analysis plus repair, in seconds.
    pub seconds: f64,
}

impl RepairReport {
    /// Fraction of initial anomalies eliminated (1.0 when all were fixed).
    ///
    /// `initial` and `remaining` are both reported by the *configured*
    /// detection mode, so pair and triple anomalies count consistently in
    /// numerator and denominator. The ratio is clamped to `[0, 1]`: a
    /// repair that surfaces anomalies absent from `initial` (e.g. a chain
    /// cut trading a fractured read for a pair-visible dirty read) reports
    /// zero progress, never a negative ratio.
    pub fn repair_ratio(&self) -> f64 {
        if self.initial.is_empty() {
            return if self.remaining.is_empty() { 1.0 } else { 0.0 };
        }
        let eliminated = self.initial.len().saturating_sub(self.remaining.len());
        eliminated as f64 / self.initial.len() as f64
    }

    /// Names of transactions still involved in at least one anomaly; running
    /// exactly these under serializability yields a provably safe program
    /// (the AT-SC configuration).
    pub fn unsafe_transactions(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for p in &self.remaining {
            out.insert(p.txn1.clone());
            out.insert(p.txn2.clone());
            out.extend(p.witnesses.iter().cloned());
        }
        out
    }
}

/// Repairs a program with the default configuration at the given level.
///
/// # Examples
///
/// ```
/// use atropos_core::{repair_program};
/// use atropos_detect::ConsistencyLevel;
///
/// let p = atropos_dsl::parse(
///     "schema C { id: int key, cnt: int }
///      txn bump(k: int) {
///          x := select cnt from C where id = k;
///          update C set cnt = x.cnt + 1 where id = k;
///          return 0;
///      }",
/// ).unwrap();
/// let report = repair_program(&p, ConsistencyLevel::EventualConsistency);
/// assert!(report.remaining.is_empty());
/// ```
pub fn repair_program(program: &Program, level: ConsistencyLevel) -> RepairReport {
    repair_with_config(
        program,
        &RepairConfig {
            level,
            ..RepairConfig::default()
        },
    )
}

/// Repairs a program under an explicit configuration.
///
/// This is the production, near-incremental driver: it builds a
/// [`DetectionEngine`] from the environment (serial unless
/// `ATROPOS_THREADS` asks for workers) and a fresh [`DetectSession`] for
/// the run, so each re-detection after a refactoring step only re-solves
/// the transaction pairs the step dirtied, and a detection
/// pass is skipped entirely when the program has not changed since the
/// previous one. Callers that repair many programs (or the same program
/// under many configurations) should construct the engine and session once
/// and call [`repair_with_engine`] instead — warm verdicts then carry
/// across runs. Verdict- and step-equivalence with the from-scratch
/// reference driver ([`repair_with_config_scratch`]) is pinned by the
/// `repair_incremental_vs_scratch` differential suite on all nine
/// workloads and every rule ablation.
///
/// # Panics
///
/// Panics if the input program fails to type check.
pub fn repair_with_config(program: &Program, config: &RepairConfig) -> RepairReport {
    let engine = DetectionEngine::from_env();
    let mut session = DetectSession::new();
    repair_with_engine(program, config, &engine, &mut session)
}

/// [`repair_with_config`] against a caller-owned engine and session: the
/// session's verdict cache survives the call, so a following run over a program sharing transaction shapes —
/// the same benchmark under another rule ablation, the next iteration of a
/// parameter sweep — answers those pairs from warm verdicts. The run's
/// [`RepairStats::cache`] reports only this run's share of the session's
/// counters.
///
/// Each program state the run inspects is summarized once, into one
/// [`ProgramSummary`] that everything reading that state shares: the input
/// program's serves the session sweep, the first detection pass, the
/// loop's view of it and the strict witness decoder; each later state's
/// serves the loop's view, its detection pass and, for the repaired
/// program, the loose decoder.
///
/// # Panics
///
/// Panics if the input program fails to type check.
pub fn repair_with_engine(
    program: &Program,
    config: &RepairConfig,
    engine: &DetectionEngine,
    session: &mut DetectSession,
) -> RepairReport {
    // Bound the session at each run boundary: sweep it to this run's input
    // program, evicting entries stranded by the previous run's
    // intermediate refactoring states while keeping every shape of the
    // (typically shared) input program warm — which is exactly where
    // cross-run reuse comes from. Within the run no pass evicts anything
    // (see `atropos_detect::session`).
    let summary = ProgramSummary::of(program);
    session.sweep_summary(&summary);
    session.begin_run();
    let before = session.cache_stats();
    let certs_before = if engine.proofs_enabled() {
        session.proof_count()
    } else {
        0
    };
    let oracle = &mut Oracle::Engine { engine, session };
    let (mut report, repaired) = repair_core(program, &summary, config, oracle);
    report.stats.cache = session.cache_stats().since(&before);
    if engine.proofs_enabled() {
        report.stats.proof_certs = session.proof_count().saturating_sub(certs_before) as u64;
    }
    replay_initial_verdicts(&summary, &repaired, config, &mut report);
    report
}

/// Witness replay: proves each initial dirty verdict on the cluster and
/// checks the repair killed it. Every verdict of `report.initial` is
/// decoded ([`atropos_detect::WitnessDecoder::decode`]) into a concrete
/// schedule and run on the simulated replica set against the original
/// program (counting [`RepairStats::replay_manifested`] /
/// [`RepairStats::replay_failed`]); then the *repaired* program is
/// searched for a surviving witness of the same anomaly
/// ([`atropos_detect::WitnessDecoder::decode_marked`]) — loosely anchored,
/// since repair rewrites command labels, and with
/// [`RepairReport::unsafe_transactions`] as the AT-SC marked set
/// (counting [`RepairStats::replay_suppressed`] /
/// [`RepairStats::replay_surviving`]). Each program gets one decoder over
/// the summary the loop built of it (`original`, `repaired`), the
/// original's dropped before the repaired one's is built, and each visits
/// the verdicts grouped by first tuple, so a tuple is grounded once per
/// program and at most one grounded tuple is live. Every schedule is
/// byte-identical to a one-shot decode of its verdict, and replay is
/// deterministic, so these counters are independent of the engine's
/// thread count.
fn replay_initial_verdicts(
    original: &ProgramSummary,
    repaired: &ProgramSummary,
    config: &RepairConfig,
    report: &mut RepairReport,
) {
    let verdicts = &report.initial;
    let mut decoder = WitnessDecoder::from_summary(original);
    for i in decoder.visit_order(verdicts) {
        match decoder.decode(&verdicts[i], config.level) {
            Some(s) if atropos_sim::run_schedule(&s).manifested => {
                report.stats.replay_manifested += 1
            }
            _ => report.stats.replay_failed += 1,
        }
    }
    drop(decoder);
    let marked = report.unsafe_transactions();
    let mut decoder = WitnessDecoder::from_summary(repaired);
    for i in decoder.visit_order(verdicts) {
        let surviving = decoder
            .decode_marked(&verdicts[i], config.level, &marked)
            .is_some_and(|s| atropos_sim::run_schedule(&s).manifested);
        if surviving {
            report.stats.replay_surviving += 1;
        } else {
            report.stats.replay_suppressed += 1;
        }
    }
}

/// The from-scratch reference driver, verbatim Fig. 10: the full anomaly
/// oracle re-runs after every refactoring step *and* on the final program,
/// with no verdict cache and no carried-forward verdicts, and each pass
/// summarizes its program from the text rather than reading the loop's
/// summary, so the differential suite checks that summary too. Slow; kept
/// for differential testing and for the incremental-vs-scratch speedup
/// accounting in the benchmark binaries.
///
/// # Panics
///
/// Panics if the input program fails to type check.
pub fn repair_with_config_scratch(program: &Program, config: &RepairConfig) -> RepairReport {
    let summary = ProgramSummary::of(program);
    repair_core(program, &summary, config, &mut Oracle::Scratch).0
}

/// Repairs `program` under every configuration of
/// [`RepairConfig::ablations`] through **one shared session**: common
/// transaction shapes (every ablation starts from the same program) are
/// answered from warm verdicts across runs, which is where the session's
/// cross-run hit ratio ([`CacheStats::cross_run_hit_ratio`]) comes from in
/// the benchmark bins.
///
/// # Panics
///
/// Panics if the input program fails to type check.
pub fn ablation_sweep(
    program: &Program,
    engine: &DetectionEngine,
    session: &mut DetectSession,
) -> Vec<(&'static str, RepairReport)> {
    RepairConfig::ablations()
        .into_iter()
        .map(|(name, config)| (name, repair_with_engine(program, &config, engine, session)))
        .collect()
}

/// How a repair run discharges its detection passes.
enum Oracle<'e, 's> {
    /// The Fig. 10 reference: a full fresh oracle pass every time.
    Scratch,
    /// The production path: the engine's (possibly parallel) cached oracle
    /// against a caller-owned session.
    Engine {
        engine: &'e DetectionEngine,
        session: &'s mut DetectSession,
    },
}

impl Oracle<'_, '_> {
    fn is_cached(&self) -> bool {
        matches!(self, Oracle::Engine { .. })
    }
}

/// Runs one detection pass (cached or scratch) over `program`, whose
/// summary is `summary`, at the configuration's level and detection mode
/// and records its [`RepairIteration`] in `stats`. The engine reads
/// `summary`; the scratch reference summarizes `program` afresh.
fn run_detection(
    program: &Program,
    summary: &ProgramSummary,
    config: &RepairConfig,
    oracle: &mut Oracle<'_, '_>,
    stats: &mut RepairStats,
) -> Vec<AccessPair> {
    let (level, mode) = (config.level, config.mode);
    match oracle {
        Oracle::Engine { engine, session } => {
            let before = session.cache_stats();
            let (pairs, d) = engine.detect_summary(summary, level, mode, session);
            let after = session.cache_stats();
            stats.iterations.push(RepairIteration {
                pairs: d.pairs,
                pairs_reused: after.hits - before.hits,
                pairs_solved: after.misses - before.misses,
                queries: d.queries,
                dirtied_txns: Vec::new(),
                seconds: d.seconds,
            });
            pairs
        }
        Oracle::Scratch => {
            // The Fig. 10 reference pays a full cold oracle every pass: a
            // serial engine over a fresh session, summarizing the program
            // text instead of reading the loop's summary.
            let (pairs, d) = DetectionEngine::serial()
                .detect_with_mode(program, level, mode, &mut DetectSession::new());
            stats.iterations.push(RepairIteration {
                pairs: d.pairs,
                pairs_reused: 0,
                pairs_solved: d.pairs,
                queries: d.queries,
                dirtied_txns: Vec::new(),
                seconds: d.seconds,
            });
            pairs
        }
    }
}

/// Detection's view of a program: each transaction's name mapped to its
/// [`atropos_detect::txn_fingerprint`] and its command labels.
pub(crate) type View = BTreeMap<String, (u64, Vec<String>)>;

/// Detection's [`View`] of the program `summary` summarizes, with each
/// fingerprint read from the summary's keys. The repair loop builds one
/// summary per program state, takes its view once and keeps the current
/// one.
pub(crate) fn view(summary: &ProgramSummary) -> View {
    summary
        .txns()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let labels = t.commands.iter().map(|c| c.label.0.clone()).collect();
            (t.name.clone(), (summary.fingerprint(i), labels))
        })
        .collect()
}

/// What one repair step changed in detection's view of a program, given
/// the [`View`]s before and after it: the transactions whose fingerprint
/// changed, or that appeared or vanished, and whether the view changed
/// at all.
///
/// The repair loop re-detects only after a step that changed the view.
/// A pure relabeling changes it without changing a fingerprint, so the
/// next pass runs and answers every group from the cache under the new
/// labels. An edit the detector cannot see (a rewritten assignment
/// expression with unchanged field and variable sets) or a dropped table
/// no command accesses leaves the view, and so every verdict, unchanged.
pub(crate) fn view_change(before: &View, after: &View) -> (BTreeSet<String>, bool) {
    let fp = |v: &View, name: &String| v.get(name).map(|e| e.0);
    let txns = before
        .keys()
        .chain(after.keys())
        .filter(|name| fp(before, name) != fp(after, name))
        .cloned()
        .collect();
    (txns, before != after)
}

/// The repair loop over `program`, whose summary is `summary`. Returns the
/// report and the summary of the repaired program: each program state the
/// loop inspects is summarized once, and the repaired program is the last
/// of them.
fn repair_core<'s>(
    program: &Program,
    summary: &'s ProgramSummary,
    config: &RepairConfig,
    oracle: &mut Oracle<'_, '_>,
) -> (RepairReport, Cow<'s, ProgramSummary>) {
    check_program(program).expect("repair requires a well-typed program");
    let start = Instant::now();
    let cached = oracle.is_cached();
    let mut stats = RepairStats::default();

    let initial = run_detection(program, summary, config, oracle, &mut stats);

    let mut current = program.clone();
    // `current`'s summary and detection's view of it, each built once per
    // program state.
    let mut current_summary = Cow::Borrowed(summary);
    let mut current_view = view(summary);
    let mut steps: Vec<RepairStep> = Vec::new();
    let mut vcs: Vec<ValueCorrespondence> = Vec::new();
    // The verdicts valid for `current` right now, carried forward by the
    // incremental driver so an unchanged program is never re-detected
    // (neither by the loop's next pass nor by the final `remaining`
    // computation). The Fig. 10 reference path always re-detects, so both
    // of its redundant passes stay measurable.
    let mut last_verdict: Option<Vec<AccessPair>> = cached.then(|| initial.clone());

    // Every split is a step, so a preprocessing pass that logged none
    // left the program as it was.
    if config.enable_split {
        pre_process(&mut current, &initial, &mut steps);
        if !steps.is_empty() {
            let split = ProgramSummary::of(&current);
            let split_view = view(&split);
            if view_change(&current_view, &split_view).1 {
                last_verdict = None;
            }
            current_summary = Cow::Owned(split);
            current_view = split_view;
        }
    }

    let mut failed: BTreeSet<(String, String, AnomalyKind)> = BTreeSet::new();
    for _ in 0..config.max_iterations {
        let mut pairs = match last_verdict.take() {
            Some(p) => {
                stats.detections_skipped += 1;
                p
            }
            None => run_detection(&current, &current_summary, config, oracle, &mut stats),
        };
        // Repair lost updates (logging) before dirty/non-repeatable pairs
        // (merging): merging first would fuse updates into multi-assignment
        // commands the logger rule cannot translate.
        pairs.sort_by(|a, b| {
            (a.kind, &a.cmd1, &a.cmd2).cmp(&(b.kind, &b.cmd1, &b.cmd2))
        });
        let mut progress = false;
        for pair in &pairs {
            let key = (pair.cmd1.0.clone(), pair.cmd2.0.clone(), pair.kind);
            if failed.contains(&key) {
                continue;
            }
            match try_repair(&current, pair, config) {
                Some((next, new_vcs, new_steps)) => {
                    let next_summary = ProgramSummary::of(&next);
                    let next_view = view(&next_summary);
                    if let Some(it) = stats.iterations.last_mut() {
                        let dirtied = view_change(&current_view, &next_view).0;
                        it.dirtied_txns = dirtied.into_iter().collect();
                    }
                    current = next;
                    current_summary = Cow::Owned(next_summary);
                    current_view = next_view;
                    vcs.extend(new_vcs);
                    steps.extend(new_steps);
                    progress = true;
                    break;
                }
                None => {
                    failed.insert(key);
                }
            }
        }
        if !progress {
            // No step applied: `pairs` still describes `current` exactly.
            last_verdict = cached.then_some(pairs);
            break;
        }
    }

    // Post-processing reports every edit it makes, so an empty report
    // left the program as it was.
    let post = if config.enable_postprocess {
        let report = post_process(&mut current);
        if report != PostProcessReport::default() {
            let post = ProgramSummary::of(&current);
            if view_change(&current_view, &view(&post)).1 {
                last_verdict = None;
            }
            current_summary = Cow::Owned(post);
        }
        report
    } else {
        PostProcessReport::default()
    };
    let mut remaining = match last_verdict {
        Some(p) => {
            stats.detections_skipped += 1;
            p
        }
        None => run_detection(&current, &current_summary, config, oracle, &mut stats),
    };
    // Canonical order: the carried-forward verdicts arrive in repair-rule
    // order while a fresh detection arrives in witness order, and the two
    // drivers must report byte-identical remainders.
    remaining.sort();
    // The cached driver's share of the session cache counters is filled in
    // by `repair_with_engine` (the session may be older than this run).
    let report = RepairReport {
        original: program.clone(),
        repaired: current,
        initial,
        remaining,
        vcs,
        steps,
        post,
        stats,
        seconds: start.elapsed().as_secs_f64(),
    };
    (report, current_summary)
}

/// Preprocessing: splits every update that participates in several anomalies
/// with disjoint field sets into one update per field group (U4 → U4.1,
/// U4.2 in the paper), provided no other command accesses fields from two
/// different groups.
fn pre_process(program: &mut Program, pairs: &[AccessPair], steps: &mut Vec<RepairStep>) {
    // Fields demanded per command label.
    let mut demand: BTreeMap<String, Vec<BTreeSet<String>>> = BTreeMap::new();
    for p in pairs {
        demand.entry(p.cmd1.0.clone()).or_default().push(p.fields1.clone());
        demand.entry(p.cmd2.0.clone()).or_default().push(p.fields2.clone());
    }

    let snapshot = program.clone();
    for t in program.transactions.iter_mut() {
        // Select splitting first: a select projecting fields demanded by
        // several disjoint anomalies is divided into one select per group,
        // with fresh variables substituted into all later reads.
        split_selects_in_txn(t, &demand, &snapshot, steps);
        // Each split update's first fragment replaces it in place; the rest
        // are spliced in after the traversal.
        let mut pending: Vec<(CmdLabel, Vec<Stmt>)> = Vec::new();
        visit_stmts_mut(&mut t.body, &mut |s| {
            let Stmt::Update(c) = s else { return };
            let Some(groups) = demand.get(&c.label.0) else { return };
            let fields = c.assigns.iter().map(|(f, _)| f.clone()).collect();
            let Some(parts) = split_parts(&fields, groups, &snapshot, &c.schema, &c.label) else {
                return;
            };
            let fragments: Vec<UpdateCmd> = parts
                .iter()
                .enumerate()
                .map(|(k, group)| UpdateCmd {
                    label: CmdLabel(format!("{}.{}", c.label.0, k + 1)),
                    schema: c.schema.clone(),
                    assigns: c
                        .assigns
                        .iter()
                        .filter(|(f, _)| group.contains(f))
                        .cloned()
                        .collect(),
                    where_: c.where_.clone(),
                })
                .collect();
            steps.push(RepairStep::Split {
                label: c.label.0.clone(),
                into: fragments.iter().map(|f| f.label.0.clone()).collect(),
            });
            let rest = fragments[1..].iter().cloned().map(Stmt::Update).collect();
            pending.push((fragments[0].label.clone(), rest));
            *s = Stmt::Update(fragments[0].clone());
        });
        for (first, rest) in pending {
            t.splice_after(&first, &rest);
        }
    }
}

/// The field groups a command over `fields` splits into for the anomaly
/// `groups` demanding it, or `None` when a split would not help or is not
/// safe. Each group is restricted to the command's fields; empty and
/// duplicate parts are dropped; at least two pairwise-disjoint parts must
/// remain; leftover fields go to the first part; and no other command of
/// `program` may access fields of two parts ([`split_safe`]).
fn split_parts(
    fields: &BTreeSet<String>,
    groups: &[BTreeSet<String>],
    program: &Program,
    schema: &str,
    label: &CmdLabel,
) -> Option<Vec<BTreeSet<String>>> {
    let mut parts: Vec<BTreeSet<String>> = Vec::new();
    for g in groups {
        let mine: BTreeSet<String> = fields.intersection(g).cloned().collect();
        if !mine.is_empty() && !parts.contains(&mine) {
            parts.push(mine);
        }
    }
    if parts.len() < 2 || !pairwise_disjoint(&parts) {
        return None;
    }
    let covered: BTreeSet<String> = parts.iter().flatten().cloned().collect();
    parts[0].extend(fields.difference(&covered).cloned());
    split_safe(program, schema, label, &parts).then_some(parts)
}

/// Splits selects demanded by several disjoint anomaly groups. Each group
/// becomes its own select (same filter) bound to a fresh variable; accesses
/// are rewritten to the fragment carrying the field.
fn split_selects_in_txn(
    t: &mut Transaction,
    demand: &BTreeMap<String, Vec<BTreeSet<String>>>,
    snapshot: &Program,
    steps: &mut Vec<RepairStep>,
) {
    // Collect the splits first (immutable pass), then apply.
    struct SelSplit {
        label: String,
        parts: Vec<BTreeSet<String>>,
    }
    let mut splits: Vec<SelSplit> = Vec::new();
    for s in t.commands() {
        let Stmt::Select(c) = s else { continue };
        let Some(groups) = demand.get(&c.label.0) else { continue };
        let Some(fields) = &c.fields else { continue };
        let fields = fields.iter().cloned().collect();
        if let Some(parts) = split_parts(&fields, groups, snapshot, &c.schema, &c.label) {
            splits.push(SelSplit {
                label: c.label.0.clone(),
                parts,
            });
        }
    }
    for sp in splits {
        let mut var_of_field: Vec<(String, String)> = Vec::new(); // field -> fragment var
        let mut old_var = String::new();
        // Replace the select in place with its first fragment and remember
        // the rest.
        let mut fragments: Vec<Stmt> = Vec::new();
        visit_stmts_mut(&mut t.body, &mut |s| {
            let Stmt::Select(c) = s else { return };
            if c.label.0 != sp.label {
                return;
            }
            old_var = c.var.clone();
            for (k, group) in sp.parts.iter().enumerate() {
                let var = format!("{}_{}", c.var, k + 1);
                for f in group {
                    var_of_field.push((f.clone(), var.clone()));
                }
                fragments.push(Stmt::Select(atropos_dsl::SelectCmd {
                    label: CmdLabel(format!("{}.{}", sp.label, k + 1)),
                    var,
                    fields: Some(group.iter().cloned().collect()),
                    schema: c.schema.clone(),
                    where_: c.where_.clone(),
                }));
            }
            if let Some(Stmt::Select(first)) = fragments.first().cloned() {
                *s = Stmt::Select(first);
            }
        });
        if fragments.is_empty() {
            continue;
        }
        steps.push(RepairStep::Split {
            label: sp.label.clone(),
            into: fragments
                .iter()
                .filter_map(|f| f.label().map(|l| l.0.clone()))
                .collect(),
        });
        // Splice remaining fragments after the first.
        if let Some(first_label) = fragments[0].label().cloned() {
            t.splice_after(&first_label, &fragments[1..]);
        }
        // Rewrite accesses through the old variable to the fragment vars.
        t.rewrite_exprs(&mut |e| match e {
            Expr::At(i, v, f) if *v == old_var => var_of_field
                .iter()
                .find(|(mf, _)| mf == f)
                .map(|(_, nv)| Expr::At(i.clone(), nv.clone(), f.clone())),
            Expr::Agg(op, v, f) if *v == old_var => var_of_field
                .iter()
                .find(|(mf, _)| mf == f)
                .map(|(_, nv)| Expr::Agg(*op, nv.clone(), f.clone())),
            _ => None,
        });
    }
}

fn pairwise_disjoint(parts: &[BTreeSet<String>]) -> bool {
    for i in 0..parts.len() {
        for j in (i + 1)..parts.len() {
            if parts[i].intersection(&parts[j]).next().is_some() {
                return false;
            }
        }
    }
    true
}

/// "We only perform this step if the split fields are not accessed together
/// in other parts of the program."
fn split_safe(
    program: &Program,
    schema: &str,
    split_label: &CmdLabel,
    parts: &[BTreeSet<String>],
) -> bool {
    for t in &program.transactions {
        for s in t.commands() {
            if s.label() == Some(split_label) || s.schema() != Some(schema) {
                continue;
            }
            let touched: BTreeSet<String> = match s {
                Stmt::Select(c) => match &c.fields {
                    Some(fs) => fs.iter().cloned().collect(),
                    None => parts.iter().flatten().cloned().collect(),
                },
                Stmt::Update(c) => c.assigns.iter().map(|(f, _)| f.clone()).collect(),
                Stmt::Insert(c) => c.values.iter().map(|(f, _)| f.clone()).collect(),
                Stmt::Delete(_) => BTreeSet::new(),
                _ => BTreeSet::new(),
            };
            let hit = parts
                .iter()
                .filter(|p| p.intersection(&touched).next().is_some())
                .count();
            if hit > 1 {
                return false;
            }
        }
    }
    true
}

type RepairOutcome = (Program, Vec<ValueCorrespondence>, Vec<RepairStep>);

/// `try_repair` (Fig. 10): merge, redirect+merge, or logging — extended
/// with the `.T` chain rules for the triple-mode anomaly kinds. A
/// successful branch returns the rewritten program, the introduced value
/// correspondences and the applied steps.
fn try_repair(program: &Program, pair: &AccessPair, config: &RepairConfig) -> Option<RepairOutcome> {
    // Chain anomalies carry their relay in `witnesses` and never fit the
    // pair rules' (c1, c2) shapes — dispatch them to the chain rules.
    if matches!(
        pair.kind,
        AnomalyKind::ObserverChain | AnomalyKind::FracturedRead | AnomalyKind::WriteSkewCycle
    ) {
        if config.enable_materialize {
            if let Some(out) = crate::chain::materialize_relay(program, pair, config.enable_merge) {
                return Some(out);
            }
        }
        if config.enable_chain_cut {
            if let Some(out) = crate::chain::chain_cut(program, pair) {
                return Some(out);
            }
        }
        return None;
    }

    let (t1, c1) = program.command(&pair.cmd1)?;
    let (t2, c2) = program.command(&pair.cmd2)?;
    let same_kind = matches!(
        (c1, c2),
        (Stmt::Select(_), Stmt::Select(_))
            | (Stmt::Update(_), Stmt::Update(_))
            | (Stmt::Insert(_), Stmt::Insert(_))
            | (Stmt::Delete(_), Stmt::Delete(_))
    );
    let same_txn = t1.name == t2.name;

    if same_kind && same_txn {
        let (s1, s2) = (c1.schema()?, c2.schema()?);
        if s1 == s2 {
            if config.enable_merge {
                if let Some(next) = try_merging(program, &pair.cmd1, &pair.cmd2) {
                    return Some((
                        next,
                        vec![],
                        vec![RepairStep::Merge {
                            kept: pair.cmd1.0.clone(),
                            removed: pair.cmd2.0.clone(),
                        }],
                    ));
                }
            }
        } else if config.enable_redirect {
            // Try redirecting c2's schema into c1's, then the reverse.
            for (from, into, from_cmd, into_cmd) in
                [(s2, s1, c2, c1), (s1, s2, c1, c2)]
            {
                if let Some(out) =
                    redirect_then_merge(program, t1, from, into, from_cmd, into_cmd, config)
                {
                    return Some(out);
                }
            }
        }
    }

    if config.enable_logging && pair.kind == AnomalyKind::LostUpdate {
        // The pair is (read, write) on a shared field; log the written field.
        let (write_cmd, read_cmd) = if matches!(c2, Stmt::Update(_)) {
            (c2, c1)
        } else {
            (c1, c2)
        };
        if let Stmt::Update(u) = write_cmd {
            let field = pair
                .fields1
                .intersection(&pair.fields2)
                .next()
                .cloned()
                .or_else(|| pair.fields2.iter().next().cloned())?;
            if let Some((mut next, new_vcs)) = apply_logging(program, &u.schema, &field) {
                // Fig. 10's success condition: the select involved in the
                // anomaly must become obsolete (dead code) — otherwise the
                // residual read still races the functional inserts. Remove
                // exactly that select; unrelated dead code waits for
                // post-processing.
                if let Some(read_label) = read_cmd.label() {
                    if !remove_if_dead_select(&mut next, read_label) {
                        return None;
                    }
                }
                let log = format!("{}_{}_LOG", u.schema, field.to_uppercase());
                return Some((
                    next,
                    new_vcs,
                    vec![RepairStep::Logging {
                        schema: u.schema.clone(),
                        field,
                        log,
                    }],
                ));
            }
        }
    }
    None
}

/// Removes the select labelled `label` if (and only if) its bound variable
/// is no longer used in its transaction. Returns whether it was removed.
fn remove_if_dead_select(program: &mut Program, label: &CmdLabel) -> bool {
    for t in program.transactions.iter_mut() {
        let Some(var) = t.commands().into_iter().find_map(|s| match s {
            Stmt::Select(c) if &c.label == label => Some(c.var.clone()),
            _ => None,
        }) else {
            continue;
        };
        if t.uses_var(&var) {
            return false;
        }
        t.retain_commands(|s| s.label() != Some(label));
        return true;
    }
    // The select is already gone (e.g. merged away): vacuously obsolete.
    true
}

/// `try_redirect` followed by `try_merging`: discover a record
/// correspondence from the commands' filters, move the fields `from_cmd`
/// accesses onto `into`'s schema, and merge the now-co-located commands.
fn redirect_then_merge(
    program: &Program,
    txn: &Transaction,
    from: &str,
    into: &str,
    from_cmd: &Stmt,
    into_cmd: &Stmt,
    config: &RepairConfig,
) -> Option<RepairOutcome> {
    let theta = discover_theta(program, txn, from, into, from_cmd, into_cmd)?;
    // Move the non-key fields the command accesses.
    let src_schema = program.schema(from)?;
    let moved: BTreeSet<String> = match from_cmd {
        Stmt::Select(c) => match &c.fields {
            Some(fs) => fs
                .iter()
                .filter(|f| src_schema.field(f).is_some_and(|d| !d.primary_key))
                .cloned()
                .collect(),
            None => src_schema.value_fields().iter().map(|f| (*f).to_owned()).collect(),
        },
        Stmt::Update(c) => c.assigns.iter().map(|(f, _)| f.clone()).collect(),
        _ => return None,
    };
    if moved.is_empty() {
        return None;
    }
    let (next, new_vcs) = apply_redirect(program, from, into, &moved, &theta)?;
    let mut steps = vec![RepairStep::Redirect {
        src: from.to_owned(),
        dst: into.to_owned(),
        fields: moved.iter().cloned().collect(),
    }];
    // Merge if possible; a successful redirect is kept even when the merge
    // itself fails (the pair may already be single-record safe).
    let (l1, l2) = (into_cmd.label()?, from_cmd.label()?);
    if config.enable_merge {
        if let Some(merged) = try_merging(&next, l1, l2) {
            steps.push(RepairStep::Merge {
                kept: l1.0.clone(),
                removed: l2.0.clone(),
            });
            return Some((merged, new_vcs, steps));
        }
    }
    Some((next, new_vcs, steps))
}

/// Derives the lifted record correspondence `θ̂ : pk(from) → fields(into)`
/// by analysing the filter of the command on `from` (§5): a key expression
/// `x.g` where `x` is bound to rows of `into` maps to `g`; a key expression
/// also assigned to a field `g` of `into` in the same transaction maps to
/// `g`.
fn discover_theta(
    program: &Program,
    txn: &Transaction,
    from: &str,
    into: &str,
    from_cmd: &Stmt,
    into_cmd: &Stmt,
) -> Option<ThetaMap> {
    let src = program.schema(from)?;
    let where_ = match from_cmd {
        Stmt::Select(c) => &c.where_,
        Stmt::Update(c) => &c.where_,
        Stmt::Delete(c) => &c.where_,
        _ => return None,
    };
    let into_where = match into_cmd {
        Stmt::Select(c) => Some(&c.where_),
        Stmt::Update(c) => Some(&c.where_),
        Stmt::Delete(c) => Some(&c.where_),
        _ => None,
    };
    let mut map = Vec::new();
    for k in src.primary_key() {
        let e = where_.eq_expr_for(k)?;
        let target = theta_target(program, txn, into, e)
            .or_else(|| theta_from_pair_constraint(program, into, into_where, e))?;
        map.push((k.to_owned(), target));
    }
    Some(ThetaMap::new(map))
}

/// §5's "equivalent expressions used in their constraints": if the paired
/// command on `into` pins one of its own key fields `g` to the very same
/// expression, the correspondence maps through `g` (the two commands name
/// the same logical entity).
fn theta_from_pair_constraint(
    program: &Program,
    into: &str,
    into_where: Option<&atropos_dsl::Where>,
    key_expr: &Expr,
) -> Option<String> {
    let w = into_where?;
    let dst = program.schema(into)?;
    let printed = atropos_dsl::print_expr(key_expr);
    for g in dst.primary_key() {
        if let Some(e) = w.eq_expr_for(g) {
            if atropos_dsl::print_expr(e) == printed {
                return Some(g.to_owned());
            }
        }
    }
    None
}

fn theta_target(
    program: &Program,
    txn: &Transaction,
    into: &str,
    key_expr: &Expr,
) -> Option<String> {
    let cmds = txn.commands();
    // Case (a): the key expression reads a field of a row of `into`.
    if let Expr::At(_, v, g) = key_expr {
        let binds = |s: &&Stmt| matches!(s, Stmt::Select(c) if c.var == *v && c.schema == into);
        if cmds.iter().any(binds) {
            return Some(g.clone());
        }
    }
    // Case (b): some update of `into` in this transaction assigns a field
    // the very same expression.
    let printed = atropos_dsl::print_expr(key_expr);
    for s in cmds {
        if let Stmt::Update(c) = s {
            if c.schema == into {
                for (g, e) in &c.assigns {
                    if atropos_dsl::print_expr(e) == printed {
                        return Some(g.clone());
                    }
                }
            }
        }
    }
    // Case (c): `into` has a field of the same name as an argument used as
    // the key (common in benchmarks: WHERE a_id = aid with ACCOUNT.a_id).
    if let Expr::Arg(a) = key_expr {
        let dst = program.schema(into)?;
        for f in &dst.fields {
            if &f.name == a {
                return Some(f.name.clone());
            }
        }
    }
    None
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use atropos_dsl::{parse, print_program};

    /// The [`View`] of `program`, summarized afresh.
    pub(crate) fn view_of(program: &Program) -> View {
        view(&ProgramSummary::of(program))
    }

    #[test]
    fn engine_with_proofs_banks_checkable_certificates() {
        // Under serializability the counter is clean, so the initial
        // detection pass is pure refutation — every UNSAT answer must bank
        // a certificate in the session, and the run must report the count.
        let p = parse(
            "schema C { id: int key, cnt: int }
             txn bump(k: int) {
                 x := select cnt from C where id = k;
                 update C set cnt = x.cnt + 1 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let engine = DetectionEngine::serial().with_proofs(true);
        let mut session = DetectSession::new();
        let config = RepairConfig {
            level: ConsistencyLevel::Serializable,
            ..RepairConfig::default()
        };
        let report = repair_with_engine(&p, &config, &engine, &mut session);
        assert!(report.remaining.is_empty());
        assert!(report.stats.proof_certs > 0, "{:?}", report.stats);
        let blobs = session.proof_blobs();
        assert_eq!(report.stats.proof_certs as usize, blobs.len());
        assert_eq!(session.proof_count(), blobs.len());
        for blob in &blobs {
            atropos_proof::check_blob(blob).expect("certificate checks");
        }
    }

    /// Fig. 1 course-management program.
    const COURSEWARE: &str = r#"
        schema STUDENT { st_id: int key, st_name: string, st_em_id: int, st_co_id: int, st_reg: bool }
        schema COURSE  { co_id: int key, co_avail: bool, co_st_cnt: int }
        schema EMAIL   { em_id: int key, em_addr: string }

        txn getSt(id: int) {
            @S1 x := select * from STUDENT where st_id = id;
            @S2 y := select em_addr from EMAIL where em_id = x.st_em_id;
            @S3 z := select co_avail from COURSE where co_id = x.st_co_id;
            return y.em_addr;
        }
        txn setSt(id: int, name: string, email: string) {
            @S4 x := select st_em_id from STUDENT where st_id = id;
            @U1 update STUDENT set st_name = name where st_id = id;
            @U2 update EMAIL set em_addr = email where em_id = x.st_em_id;
            return 0;
        }
        txn regSt(id: int, course: int) {
            @U3 update STUDENT set st_co_id = course, st_reg = true where st_id = id;
            @S5 x := select co_st_cnt from COURSE where co_id = course;
            @U4 update COURSE set co_st_cnt = x.co_st_cnt + 1, co_avail = true where co_id = course;
            return 0;
        }
    "#;

    #[test]
    fn repairs_courseware_to_fig3_shape() {
        let p = parse(COURSEWARE).unwrap();
        let report = repair_program(&p, ConsistencyLevel::EventualConsistency);
        let text = print_program(&report.repaired);

        assert!(!report.initial.is_empty());
        assert!(
            report.remaining.is_empty(),
            "remaining: {:?}\nprogram:\n{text}",
            report.remaining
        );
        // EMAIL and COURSE are gone; a log table exists.
        assert!(report.repaired.schema("EMAIL").is_none(), "{text}");
        assert!(report.repaired.schema("COURSE").is_none(), "{text}");
        assert!(
            report.repaired.schema("COURSE_CO_ST_CNT_LOG").is_some(),
            "{text}"
        );
        // getSt collapsed to a single select on STUDENT.
        let get = report.repaired.transaction("getSt").unwrap();
        assert_eq!(get.commands().len(), 1, "{text}");
        // setSt collapsed to a single update.
        let set = report.repaired.transaction("setSt").unwrap();
        assert_eq!(set.commands().len(), 1, "{text}");
        // regSt: one student update + one log insert.
        let reg = report.repaired.transaction("regSt").unwrap();
        assert_eq!(reg.commands().len(), 2, "{text}");
        assert!(text.contains("insert into COURSE_CO_ST_CNT_LOG"), "{text}");
    }

    #[test]
    fn split_preprocessing_divides_mixed_update() {
        let p = parse(COURSEWARE).unwrap();
        let report = repair_program(&p, ConsistencyLevel::EventualConsistency);
        assert!(
            report
                .steps
                .iter()
                .any(|s| matches!(s, RepairStep::Split { label, .. } if label == "U4")),
            "steps: {:?}",
            report.steps
        );
    }

    #[test]
    fn repair_ratio_reported() {
        let p = parse(COURSEWARE).unwrap();
        let report = repair_program(&p, ConsistencyLevel::EventualConsistency);
        assert!((report.repair_ratio() - 1.0).abs() < 1e-9);
        assert!(report.unsafe_transactions().is_empty());
    }

    #[test]
    fn unfixable_blind_write_pairs_remain() {
        // Blind write vs read-modify-write on the same field cannot be
        // merged (different transactions) nor logged (blind write).
        let p = parse(
            "schema T { id: int key, v: int }
             txn setit(k: int, n: int) {
                 update T set v = n where id = k;
                 return 0;
             }
             txn bump(k: int) {
                 x := select v from T where id = k;
                 update T set v = x.v + 1 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let report = repair_program(&p, ConsistencyLevel::EventualConsistency);
        assert!(!report.remaining.is_empty());
        assert!(report.unsafe_transactions().contains("bump"));
        // Witness replay still closes the loop: every initial verdict
        // manifests on the original program, and the AT-SC marked set
        // suppresses the leftovers on the (unchanged) repaired program.
        assert_eq!(
            report.stats.replay_manifested,
            report.initial.len() as u64,
            "{:?}",
            report.stats
        );
        assert_eq!(report.stats.replay_failed, 0, "{:?}", report.stats);
        assert_eq!(report.stats.replay_surviving, 0, "{:?}", report.stats);
    }

    /// A fully repaired program suppresses every initial verdict's witness
    /// without needing any AT-SC marking.
    #[test]
    fn replay_counters_close_on_full_repair() {
        let p = parse(COURSEWARE).unwrap();
        let report = repair_program(&p, ConsistencyLevel::EventualConsistency);
        assert!(report.remaining.is_empty());
        assert!(!report.initial.is_empty());
        let n = report.initial.len() as u64;
        assert_eq!(report.stats.replay_manifested, n, "{:?}", report.stats);
        assert_eq!(report.stats.replay_failed, 0, "{:?}", report.stats);
        assert_eq!(report.stats.replay_suppressed, n, "{:?}", report.stats);
        assert_eq!(report.stats.replay_surviving, 0, "{:?}", report.stats);
    }

    #[test]
    fn disabling_rules_disables_repairs() {
        let p = parse(COURSEWARE).unwrap();
        let config = RepairConfig {
            enable_merge: false,
            enable_redirect: false,
            enable_logging: false,
            enable_split: false,
            enable_postprocess: false,
            ..RepairConfig::default()
        };
        let report = repair_with_config(&p, &config);
        assert_eq!(report.initial.len(), report.remaining.len());
        assert!(report.steps.is_empty());
    }

    #[test]
    fn already_clean_program_is_detected_exactly_once() {
        // A single-command program has no anomalies and nothing for the
        // post-processor to touch: the driver must run the oracle once and
        // reuse that verdict for both the loop's pass and `remaining`,
        // instead of re-detecting the unchanged program twice more.
        let p = parse(
            "schema T { id: int key, v: int }
             txn set(k: int, n: int) {
                 update T set v = n where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let cached = repair_program(&p, ConsistencyLevel::EventualConsistency);
        assert!(cached.initial.is_empty());
        assert!(cached.remaining.is_empty());
        assert_eq!(cached.stats.iterations.len(), 1, "{:?}", cached.stats);
        assert_eq!(cached.stats.detections_skipped, 2, "{:?}", cached.stats);
        // The Fig. 10 reference pays all three passes on the same input.
        let scratch = repair_with_config_scratch(&p, &RepairConfig::default());
        assert!(scratch.remaining.is_empty());
        assert_eq!(scratch.stats.iterations.len(), 3, "{:?}", scratch.stats);
        assert_eq!(scratch.stats.detections_skipped, 0, "{:?}", scratch.stats);
    }

    #[test]
    fn cached_and_scratch_drivers_agree_on_courseware() {
        let p = parse(COURSEWARE).unwrap();
        let cached = repair_program(&p, ConsistencyLevel::EventualConsistency);
        let scratch = repair_with_config_scratch(&p, &RepairConfig::default());
        assert_eq!(cached.steps, scratch.steps);
        assert_eq!(cached.remaining, scratch.remaining);
        assert_eq!(cached.vcs, scratch.vcs);
        assert_eq!(
            atropos_dsl::print_program(&cached.repaired),
            atropos_dsl::print_program(&scratch.repaired)
        );
        // The cached run must actually reuse verdicts across iterations…
        assert!(
            cached.stats.pairs_reused() > 0,
            "no cache reuse: {:?}",
            cached.stats
        );
        assert!(cached.stats.hit_ratio() > 0.0);
        // …while the scratch reference never does.
        assert_eq!(scratch.stats.pairs_reused(), 0);
        assert_eq!(scratch.stats.cache, atropos_detect::CacheStats::default());
        // Both record the same number of oracle passes (run or skipped).
        assert_eq!(
            cached.stats.iterations.len() as u64 + cached.stats.detections_skipped,
            scratch.stats.iterations.len() as u64 + scratch.stats.detections_skipped
        );
    }

    /// A relabeled twin repaired after the original on one session: the
    /// twin's fingerprints all match the original's (labels are not
    /// hashed), so its first detection pass is answered from the entries
    /// the original's run cached and solves no pair — and it must still
    /// name the twin's own commands, so it repairs exactly like an
    /// isolated run.
    #[test]
    fn relabeled_twin_repairs_warm_like_isolation() {
        let counter = "schema C { id: int key, cnt: int }
             txn bump(k: int) {
                 @RA x := select cnt from C where id = k;
                 @WA update C set cnt = x.cnt + 1 where id = k;
                 return 0;
             }";
        let twin = parse(&counter.replace("@RA", "@RB").replace("@WA", "@WB")).unwrap();
        let config = RepairConfig::default();
        let engine = DetectionEngine::serial();
        let mut session = DetectSession::new();
        repair_with_engine(&parse(counter).unwrap(), &config, &engine, &mut session);
        let shared = repair_with_engine(&twin, &config, &engine, &mut session);
        let first = &shared.stats.iterations[0];
        assert!(first.pairs > 0, "{first:?}");
        assert_eq!(first.pairs_solved, 0, "the twin must start warm: {first:?}");
        let isolated = repair_with_engine(&twin, &config, &engine, &mut DetectSession::new());
        assert_eq!(shared.initial, isolated.initial);
        assert_eq!(shared.steps, isolated.steps);
        assert_eq!(
            print_program(&shared.repaired),
            print_program(&isolated.repaired)
        );
        assert!(shared.remaining.is_empty(), "{:?}", shared.remaining);
        assert_eq!(shared.stats.replay_failed, 0);
    }

    /// The ablation sweep shares one session: every configuration repairs
    /// the same program, so later runs answer the shapes earlier runs
    /// solved — a nonzero cross-run hit ratio — while each run's report
    /// still matches an isolated repair of the same configuration.
    #[test]
    fn ablation_sweep_shares_warm_verdicts_across_runs() {
        let p = parse(COURSEWARE).unwrap();
        let engine = DetectionEngine::new(2);
        let mut session = DetectSession::new();
        let sweep = ablation_sweep(&p, &engine, &mut session);
        assert_eq!(sweep.len(), RepairConfig::ablations().len());
        for ((name, config), (_, shared)) in RepairConfig::ablations().iter().zip(&sweep) {
            let isolated = repair_with_config(&p, config);
            assert_eq!(shared.steps, isolated.steps, "{name}");
            assert_eq!(shared.remaining, isolated.remaining, "{name}");
            assert_eq!(
                print_program(&shared.repaired),
                print_program(&isolated.repaired),
                "{name}"
            );
        }
        let stats = session.cache_stats();
        assert!(
            stats.cross_run_hit_ratio() > 0.0,
            "sweep must reuse verdicts across runs: {stats:?}"
        );
        assert_eq!(session.runs(), sweep.len() as u64);
        // Per-run cache shares sum to the session's lifetime counters.
        let run_hits: u64 = sweep.iter().map(|(_, r)| r.stats.cache.hits).sum();
        assert_eq!(run_hits, stats.hits);
    }

    #[test]
    fn applied_steps_report_their_dirtied_transactions() {
        let p = parse(COURSEWARE).unwrap();
        let report = repair_program(&p, ConsistencyLevel::EventualConsistency);
        // Every iteration that applied a step names at least one dirtied
        // transaction; the union covers the transactions the steps rewrote.
        let applied: Vec<_> = report
            .stats
            .iterations
            .iter()
            .filter(|i| !i.dirtied_txns.is_empty())
            .collect();
        assert!(!applied.is_empty(), "{:?}", report.stats);
        let dirtied: BTreeSet<&str> = applied
            .iter()
            .flat_map(|i| i.dirtied_txns.iter().map(String::as_str))
            .collect();
        assert!(dirtied.contains("getSt") || dirtied.contains("setSt"), "{dirtied:?}");
    }

    /// Triple mode threads through the repair loop: on the 3-hop relay the
    /// pair-mode driver sees nothing, while the triple-mode driver surfaces
    /// the observer chain — and, with the chain rules enabled, repairs it
    /// to clean via relay materialization (`repair_ratio == 1.0`).
    #[test]
    fn triple_mode_repairs_the_relay_chain_to_clean() {
        let p = atropos_workloads_relay();
        let pair_report = repair_program(&p, ConsistencyLevel::EventualConsistency);
        assert!(pair_report.initial.is_empty(), "{:?}", pair_report.initial);
        assert!(pair_report.remaining.is_empty());

        let config = RepairConfig {
            mode: DetectMode::Triples,
            ..RepairConfig::default()
        };
        let triple_report = repair_with_config(&p, &config);
        assert_eq!(triple_report.initial.len(), 1, "{:?}", triple_report.initial);
        assert_eq!(triple_report.initial[0].kind, AnomalyKind::ObserverChain);
        assert!(triple_report.remaining.is_empty(), "{:?}", triple_report.remaining);
        assert!(triple_report.unsafe_transactions().is_empty());
        assert!(
            triple_report
                .steps
                .iter()
                .any(|s| matches!(s, RepairStep::Materialize { .. })),
            "{:?}",
            triple_report.steps
        );
        assert!((triple_report.repair_ratio() - 1.0).abs() < 1e-12);
        // The scratch reference agrees in triple mode too.
        let scratch = repair_with_config_scratch(&p, &config);
        assert_eq!(triple_report.remaining, scratch.remaining);
        assert_eq!(triple_report.steps, scratch.steps);
        assert_eq!(
            print_program(&triple_report.repaired),
            print_program(&scratch.repaired)
        );
    }

    /// With both chain rules ablated, triple mode degrades to PR 5
    /// behaviour: the observer chain is surfaced but not repaired, and the
    /// unsafe coordination set names the whole chain (the AT-SC fallback).
    #[test]
    fn triple_mode_without_chain_rules_surfaces_the_chain_unrepaired() {
        let p = atropos_workloads_relay();
        let config = RepairConfig {
            mode: DetectMode::Triples,
            enable_materialize: false,
            enable_chain_cut: false,
            ..RepairConfig::default()
        };
        let triple_report = repair_with_config(&p, &config);
        assert_eq!(triple_report.initial.len(), 1);
        assert_eq!(triple_report.remaining.len(), 1);
        assert_eq!(
            triple_report.unsafe_transactions(),
            BTreeSet::from(["post".to_owned(), "relay".to_owned(), "timeline".to_owned()]),
            "AT-SC must coordinate the whole chain, including the relay witness"
        );
        // Surfacing without repairing is zero progress, never negative.
        assert_eq!(triple_report.repair_ratio(), 0.0);
    }

    /// The relay-shaped program shared by the triple-mode repair tests
    /// (`atropos_workloads::relay`, inlined — the workloads crate depends
    /// on this one). The timeline's reads flow into its result, so
    /// dead-select elimination cannot dissolve the chain in
    /// post-processing.
    fn atropos_workloads_relay() -> Program {
        parse(
            "schema MSG { m_id: int key, m_body: int }
             schema FEED { f_id: int key, f_body: int }
             txn post(m: int, body: int) {
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
                 return y.f_body + z.m_body;
             }",
        )
        .unwrap()
    }

    #[test]
    fn vcs_describe_moved_data() {
        let p = parse(COURSEWARE).unwrap();
        let report = repair_program(&p, ConsistencyLevel::EventualConsistency);
        // em_addr moved somewhere, co_st_cnt logged.
        assert!(report
            .vcs
            .iter()
            .any(|v| v.src_schema == "EMAIL" && v.src_field == "em_addr"));
        assert!(report.vcs.iter().any(|v| {
            v.src_schema == "COURSE"
                && v.src_field == "co_st_cnt"
                && v.alpha == atropos_semantics::Aggregator::Sum
        }));
    }

    const VIEW_SRC: &str = "schema T { id: int key, v: int, w: int }
         schema U { id: int key, z: int }
         txn t(k: int) {
             @S1 x := select v from T where id = k;
             if (x.v > 0) {
                 @U1 update U set z = x.v where id = k;
             }
             @S2 y := select w from T where id = k;
             return x.v;
         }";

    #[test]
    fn view_change_reports_changed_txns() {
        let before = parse(VIEW_SRC).unwrap();
        assert_eq!(
            view_change(&view_of(&before), &view_of(&before)),
            (BTreeSet::new(), false)
        );

        // Touch one command's write set: its transaction is dirty.
        let after = parse(&VIEW_SRC.replace("set z = x.v", "set z = x.v, id = k")).unwrap();
        assert_eq!(
            view_change(&view_of(&before), &view_of(&after)),
            (BTreeSet::from(["t".to_owned()]), true)
        );

        // Removing a command dirties its transaction too.
        let removed =
            parse(&VIEW_SRC.replace("@S2 y := select w from T where id = k;", "")).unwrap();
        assert_eq!(
            view_change(&view_of(&before), &view_of(&removed)),
            (BTreeSet::from(["t".to_owned()]), true)
        );

        // So does a transaction that appears or vanishes.
        let renamed = parse(&VIEW_SRC.replace("txn t(", "txn t2(")).unwrap();
        let both = BTreeSet::from(["t".to_owned(), "t2".to_owned()]);
        assert_eq!(
            view_change(&view_of(&before), &view_of(&renamed)),
            (both, true)
        );
    }

    #[test]
    fn view_change_counts_pure_relabelings() {
        // A label change on an otherwise untouched command dirties no
        // transaction, but it changes the view: the next detection pass
        // runs and answers every group from the cache under the new label.
        let before = parse(VIEW_SRC).unwrap();
        let after = parse(&VIEW_SRC.replace("@U1", "@U9")).unwrap();
        assert_eq!(
            view_change(&view_of(&before), &view_of(&after)),
            (BTreeSet::new(), true)
        );
    }

    #[test]
    fn view_change_ignores_detector_invisible_edits() {
        // Rewriting an assignment expression without changing any field or
        // variable set cannot affect a verdict, so the view is unchanged.
        let before = parse(VIEW_SRC).unwrap();
        let after = parse(&VIEW_SRC.replace("set z = x.v", "set z = x.v + 1")).unwrap();
        assert_eq!(
            view_change(&view_of(&before), &view_of(&after)),
            (BTreeSet::new(), false)
        );
    }

    #[test]
    fn view_change_schema_change_dirties_star_selects() {
        // `select *` summaries expand through the declaration: adding a
        // field must dirty the selecting transaction even though its
        // command text is unchanged.
        const STAR: &str = "schema T { id: int key, v: int }
             txn t(k: int) {
                 @S1 x := select * from T where id = k;
                 return x.v;
             }";
        let before = parse(STAR).unwrap();
        let after = parse(&STAR.replace(
            "schema T { id: int key, v: int }",
            "schema T { id: int key, v: int, extra: int }",
        ))
        .unwrap();
        assert_eq!(
            view_change(&view_of(&before), &view_of(&after)),
            (BTreeSet::from(["t".to_owned()]), true)
        );
    }
}
