//! The discrete-event simulation: closed-loop clients against a replicated
//! document store, under weak (EC) or coordinated (SC) execution.
//!
//! Model (the crate docs, [`crate`], say what it stands in for and what it
//! does not claim):
//!
//! * each replica is a FIFO CPU server; an operation occupies it for
//!   `base + per_field · fields` milliseconds (× `scan_factor` for
//!   log-aggregation reads);
//! * **weak transactions** execute all ops at the client's local replica and
//!   commit locally; their writes are then applied asynchronously at the
//!   other replicas (after a one-way network delay), consuming CPU there;
//! * **serializable transactions** first acquire FIFO locks on every
//!   accessed record (in canonical order, so no deadlocks), execute their
//!   ops, then pay two majority-quorum round trips (prepare + commit)
//!   before releasing the locks — the coordination the paper attributes to
//!   MongoDB's strongest settings;
//! * clients are closed-loop: each completes one transaction before
//!   starting the next, mirroring the paper's client processes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cluster::ClusterConfig;
use crate::stats::RunStats;
use crate::workload::{ConcreteTxn, OpKind, Workload};

/// Cost model for replica CPU work.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Base CPU milliseconds per operation.
    pub base_ms: f64,
    /// Additional milliseconds per field moved.
    pub per_field_ms: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            base_ms: 0.35,
            per_field_ms: 0.03,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cluster topology.
    pub cluster: ClusterConfig,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Simulated duration in milliseconds (the paper runs 90 s).
    pub duration_ms: f64,
    /// Fraction of the run treated as warm-up and excluded from stats.
    pub warmup_fraction: f64,
    /// CPU cost model.
    pub cost: CostModel,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// A config with the defaults used across the experiments.
    pub fn new(cluster: ClusterConfig, clients: usize) -> SimConfig {
        SimConfig {
            cluster,
            clients,
            duration_ms: 90_000.0,
            warmup_fraction: 0.1,
            cost: CostModel::default(),
            seed: 0x0A71_2005,
        }
    }
}

/// A lock identity: the `(table, key)` pair verbatim. An earlier version
/// folded the pair into one word as `table_id · M ⊕ key`, which can map two
/// distinct records onto one lock — false contention at best, and false
/// mutual exclusion that could mask a replayed anomaly under SC at worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct LockKey(u64, u64);

fn lock_key(table_id: u64, key: u64) -> LockKey {
    LockKey(table_id, key)
}

#[derive(Debug, Default)]
struct Lock {
    held_by: Option<usize>,
    queue: VecDeque<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Acquiring lock number `n` of the sorted lock list.
    Locking(usize),
    /// Executing op number `n`.
    Executing(usize),
    /// Waiting for the coordination (quorum) delay.
    Coordinating,
}

#[derive(Debug)]
struct ClientState {
    replica: usize,
    txn: ConcreteTxn,
    locks: Vec<LockKey>,
    phase: Phase,
    start: f64,
}

/// A time-ordered future event: wake client `1` at time `0` (sequence `2`
/// breaks ties deterministically).
#[derive(Debug, PartialEq)]
struct Ev(f64, usize, u64);

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("finite times")
            .then(self.2.cmp(&other.2))
    }
}

/// Runs the simulation and returns aggregate statistics.
///
/// # Examples
///
/// ```
/// use atropos_sim::{run_simulation, ClusterConfig, SimConfig, Workload,
///                   TxnProfile, OpProfile, OpKind, KeyDist};
///
/// let w = Workload::new(vec![TxnProfile {
///     name: "read".into(),
///     weight: 1.0,
///     serializable: false,
///     ops: vec![OpProfile {
///         table: "T".into(), kind: OpKind::Read,
///         key: KeyDist::Uniform(100), fields: 2, scan_factor: 1.0,
///     }],
/// }]);
/// let mut cfg = SimConfig::new(ClusterConfig::us(), 8);
/// cfg.duration_ms = 2_000.0;
/// let stats = run_simulation(&w, &cfg);
/// assert!(stats.throughput_tps > 0.0);
/// ```
pub fn run_simulation(workload: &Workload, config: &SimConfig) -> RunStats {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let replicas = config.cluster.replicas();
    let mut busy_until = vec![0.0f64; replicas];
    let mut locks: HashMap<LockKey, Lock> = HashMap::new();
    let mut table_ids: HashMap<String, u64> = HashMap::new();

    let mut queue: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |q: &mut BinaryHeap<Reverse<Ev>>, t: f64, c: usize, seq: &mut u64| {
        q.push(Reverse(Ev(t, c, *seq)));
        *seq += 1;
    };

    let mut clients: Vec<ClientState> = (0..config.clients)
        .map(|i| ClientState {
            replica: i % replicas,
            txn: ConcreteTxn {
                profile: 0,
                keys: vec![],
            },
            locks: vec![],
            phase: Phase::Executing(0),
            start: 0.0,
        })
        .collect();

    // Start each transaction fresh for client `c` at time `t`.
    let new_txn = |clients: &mut Vec<ClientState>,
                   c: usize,
                   t: f64,
                   rng: &mut StdRng,
                   ids: &mut HashMap<String, u64>|
     -> Phase {
        let txn = workload.sample(rng);
        let profile = &workload.txns[txn.profile];
        let mut lk: Vec<LockKey> = if profile.serializable {
            profile
                .ops
                .iter()
                .zip(&txn.keys)
                .filter(|(op, _)| op.kind != OpKind::InsertFresh)
                .map(|(op, &k)| {
                    let tid = match ids.get(&op.table) {
                        Some(&t) => t,
                        None => {
                            let t = ids.len() as u64;
                            ids.insert(op.table.clone(), t);
                            t
                        }
                    };
                    lock_key(tid, k)
                })
                .collect()
        } else {
            vec![]
        };
        lk.sort();
        lk.dedup();
        clients[c].txn = txn;
        clients[c].locks = lk;
        clients[c].start = t;
        if clients[c].locks.is_empty() {
            Phase::Executing(0)
        } else {
            Phase::Locking(0)
        }
    };

    let mut committed: u64 = 0;
    let mut latencies: Vec<f64> = Vec::new();
    let warmup = config.duration_ms * config.warmup_fraction;

    // Kick off all clients at time 0 (staggered a hair for determinism).
    for c in 0..config.clients {
        clients[c].phase = new_txn(&mut clients, c, 0.0, &mut rng, &mut table_ids);
        push(&mut queue, c as f64 * 1e-6, c, &mut seq);
    }

    while let Some(Reverse(Ev(now, c, _))) = queue.pop() {
        if now > config.duration_ms {
            continue;
        }
        let phase = clients[c].phase;
        match phase {
            Phase::Locking(n) => {
                if n >= clients[c].locks.len() {
                    clients[c].phase = Phase::Executing(0);
                    push(&mut queue, now, c, &mut seq);
                    continue;
                }
                let key = clients[c].locks[n];
                let lock = locks.entry(key).or_default();
                match lock.held_by {
                    None => {
                        lock.held_by = Some(c);
                        clients[c].phase = Phase::Locking(n + 1);
                        push(&mut queue, now, c, &mut seq);
                    }
                    Some(_) => {
                        // Park; we are woken when the lock is granted.
                        lock.queue.push_back(c);
                    }
                }
            }
            Phase::Executing(n) => {
                let profile = &workload.txns[clients[c].txn.profile];
                if n >= profile.ops.len() {
                    // Ops done: weak commits immediately, serializable pays
                    // the coordination round trips.
                    if profile.serializable {
                        let delay = 2.0 * config.cluster.quorum_rtt_ms(clients[c].replica);
                        clients[c].phase = Phase::Coordinating;
                        push(&mut queue, now + delay, c, &mut seq);
                    } else {
                        // Async replication of writes to the other replicas.
                        let r = clients[c].replica;
                        for op in profile
                            .ops
                            .iter()
                            .filter(|o| o.kind != OpKind::Read)
                        {
                            let cost = (config.cost.base_ms
                                + config.cost.per_field_ms * op.fields as f64)
                                * 0.5; // applying is cheaper than executing
                            for other in 0..replicas {
                                if other != r {
                                    let arrive = now + config.cluster.one_way_ms(r, other);
                                    busy_until[other] =
                                        busy_until[other].max(arrive) + cost;
                                }
                            }
                        }
                        finish_txn(
                            &mut clients,
                            c,
                            now,
                            warmup,
                            &mut committed,
                            &mut latencies,
                        );
                        clients[c].phase =
                            new_txn(&mut clients, c, now, &mut rng, &mut table_ids);
                        push(&mut queue, now, c, &mut seq);
                    }
                } else {
                    let op = &profile.ops[n];
                    let mut cost = (config.cost.base_ms
                        + config.cost.per_field_ms * op.fields as f64)
                        * op.scan_factor.max(0.0);
                    // Serializable ops additionally wait for a majority ack
                    // per write (write-concern majority).
                    if profile.serializable && op.kind != OpKind::Read {
                        cost += config.cluster.quorum_rtt_ms(clients[c].replica);
                    }
                    let r = clients[c].replica;
                    let done = busy_until[r].max(now) + cost;
                    busy_until[r] = done;
                    clients[c].phase = Phase::Executing(n + 1);
                    push(&mut queue, done, c, &mut seq);
                }
            }
            Phase::Coordinating => {
                // Release locks, waking the heads of the wait queues.
                let held: Vec<LockKey> = clients[c].locks.clone();
                for key in held {
                    let lock = locks.get_mut(&key).expect("held lock exists");
                    debug_assert_eq!(lock.held_by, Some(c));
                    match lock.queue.pop_front() {
                        None => lock.held_by = None,
                        Some(next) => {
                            lock.held_by = Some(next);
                            // The waiter resumes its lock acquisition after
                            // this one.
                            let Phase::Locking(k) = clients[next].phase else {
                                unreachable!("parked client is locking");
                            };
                            clients[next].phase = Phase::Locking(k + 1);
                            push(&mut queue, now, next, &mut seq);
                        }
                    }
                }
                finish_txn(&mut clients, c, now, warmup, &mut committed, &mut latencies);
                clients[c].phase = new_txn(&mut clients, c, now, &mut rng, &mut table_ids);
                push(&mut queue, now, c, &mut seq);
            }
        }
    }

    let measured_ms = config.duration_ms - warmup;
    RunStats::from_latencies(committed, &latencies, measured_ms)
}

fn finish_txn(
    clients: &mut [ClientState],
    c: usize,
    now: f64,
    warmup: f64,
    committed: &mut u64,
    latencies: &mut Vec<f64>,
) {
    if now >= warmup {
        *committed += 1;
        // A transaction in flight at the warm-up boundary is attributed to
        // its completion-time side only: the part of its lifetime inside
        // the warm-up period is already excluded from the measurement
        // window, so counting it in the latency sample again would
        // double-count the boundary and skew the measured latencies.
        latencies.push(now - clients[c].start.max(warmup));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{KeyDist, OpProfile, TxnProfile};

    fn simple_workload(serializable: bool, key: KeyDist) -> Workload {
        Workload::new(vec![TxnProfile {
            name: "rmw".into(),
            weight: 1.0,
            serializable,
            ops: vec![
                OpProfile {
                    table: "T".into(),
                    kind: OpKind::Read,
                    key,
                    fields: 1,
                    scan_factor: 1.0,
                },
                OpProfile {
                    table: "T".into(),
                    kind: OpKind::Write,
                    key: KeyDist::SameAs(0),
                    fields: 1,
                    scan_factor: 1.0,
                },
            ],
        }])
    }

    fn short(cluster: ClusterConfig, clients: usize, seed: u64) -> SimConfig {
        let mut c = SimConfig::new(cluster, clients);
        c.duration_ms = 5_000.0;
        c.seed = seed;
        c
    }

    #[test]
    fn ec_outperforms_sc_on_wide_area_clusters() {
        let ec = run_simulation(
            &simple_workload(false, KeyDist::Uniform(1000)),
            &short(ClusterConfig::us(), 50, 1),
        );
        let sc = run_simulation(
            &simple_workload(true, KeyDist::Uniform(1000)),
            &short(ClusterConfig::us(), 50, 1),
        );
        assert!(
            ec.throughput_tps > 2.0 * sc.throughput_tps,
            "EC {:.0} vs SC {:.0} tps",
            ec.throughput_tps,
            sc.throughput_tps
        );
        assert!(
            sc.avg_latency_ms > 2.0 * ec.avg_latency_ms,
            "EC {:.2}ms vs SC {:.2}ms",
            ec.avg_latency_ms,
            sc.avg_latency_ms
        );
    }

    #[test]
    fn sc_contention_on_hot_keys_queues() {
        let uniform = run_simulation(
            &simple_workload(true, KeyDist::Uniform(10_000)),
            &short(ClusterConfig::us(), 40, 2),
        );
        let hot = run_simulation(
            &simple_workload(true, KeyDist::Fixed(0)),
            &short(ClusterConfig::us(), 40, 2),
        );
        assert!(
            hot.throughput_tps < uniform.throughput_tps / 2.0,
            "hot {:.0} vs uniform {:.0}",
            hot.throughput_tps,
            uniform.throughput_tps
        );
    }

    #[test]
    fn ec_throughput_scales_then_saturates() {
        let w = simple_workload(false, KeyDist::Uniform(100_000));
        let t10 = run_simulation(&w, &short(ClusterConfig::us(), 10, 3)).throughput_tps;
        let t80 = run_simulation(&w, &short(ClusterConfig::us(), 80, 3)).throughput_tps;
        assert!(t80 > t10 * 2.0, "t10={t10:.0} t80={t80:.0}");
    }

    #[test]
    fn latency_grows_with_cluster_span_under_sc() {
        let w = simple_workload(true, KeyDist::Uniform(100_000));
        let va = run_simulation(&w, &short(ClusterConfig::virginia(), 20, 4)).avg_latency_ms;
        let us = run_simulation(&w, &short(ClusterConfig::us(), 20, 4)).avg_latency_ms;
        let gl = run_simulation(&w, &short(ClusterConfig::global(), 20, 4)).avg_latency_ms;
        assert!(va < us && us < gl, "va={va:.1} us={us:.1} gl={gl:.1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let w = simple_workload(false, KeyDist::Uniform(1000));
        let a = run_simulation(&w, &short(ClusterConfig::us(), 10, 7));
        let b = run_simulation(&w, &short(ClusterConfig::us(), 10, 7));
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.avg_latency_ms, b.avg_latency_ms);
    }

    #[test]
    fn distinct_records_never_share_a_lock() {
        // Under the old `table_id · M ⊕ key` folding these two records
        // collided onto one lock word: 0 · M ⊕ M == 1 · M ⊕ 0. The tuple
        // key keeps them — and every other distinct pair — apart.
        const M: u64 = 0x9E37_79B9_7F4A_7C15;
        assert_ne!(lock_key(0, M), lock_key(1, 0));
        assert_ne!(lock_key(2, M.wrapping_mul(2) ^ 7), lock_key(3, M.wrapping_mul(3) ^ 7));
        assert_eq!(lock_key(5, 9), lock_key(5, 9));
    }

    #[test]
    fn warmup_boundary_counts_completion_side_only() {
        let mut clients = vec![ClientState {
            replica: 0,
            txn: ConcreteTxn {
                profile: 0,
                keys: vec![],
            },
            locks: vec![],
            phase: Phase::Executing(0),
            start: 60.0,
        }];
        let (mut committed, mut lat) = (0u64, Vec::new());
        // Completes inside warm-up: not counted at all.
        finish_txn(&mut clients, 0, 90.0, 100.0, &mut committed, &mut lat);
        assert_eq!((committed, lat.len()), (0, 0));
        // In flight at the boundary (started 60, warm-up ends 100,
        // completes 130): committed once, latency only the measured-window
        // share — the 40 ms spent inside warm-up is already excluded from
        // the measurement window and must not be re-counted.
        finish_txn(&mut clients, 0, 130.0, 100.0, &mut committed, &mut lat);
        assert_eq!(committed, 1);
        assert_eq!(lat, vec![30.0]);
        // Fully post-warm-up: the full latency.
        clients[0].start = 110.0;
        finish_txn(&mut clients, 0, 150.0, 100.0, &mut committed, &mut lat);
        assert_eq!(lat, vec![30.0, 40.0]);
    }

    #[test]
    fn no_lock_leaks_across_transactions() {
        // A long SC run on few keys must terminate with matching
        // commits (progress proves locks are always released).
        let stats = run_simulation(
            &simple_workload(true, KeyDist::Uniform(3)),
            &short(ClusterConfig::virginia(), 12, 9),
        );
        assert!(stats.committed > 100, "only {} commits", stats.committed);
    }
}
