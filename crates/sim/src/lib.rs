//! # atropos-sim
//!
//! A discrete-event simulator of a geo-replicated document store, standing
//! in for the paper's three-node MongoDB clusters (§7.2). It reproduces the
//! *relative* performance behaviour the evaluation depends on:
//!
//! * weak (eventually consistent) transactions execute locally and
//!   replicate asynchronously — they scale with client count until replica
//!   CPUs saturate;
//! * serializable transactions acquire record locks and pay majority-quorum
//!   round trips — their latency is dominated by the cluster's RTTs and
//!   their throughput by lock queueing on hot records.
//!
//! # What the simulator stands in for
//!
//! The paper's §7.2 runs each benchmark, original and refactored, on
//! three-node MongoDB replica sets on AWS: one data centre (N. Virginia),
//! three US regions, and three continents. It reports how throughput and
//! latency move with the client count under weak (EC) and serializable
//! execution, before and after repair. This crate replaces that testbed
//! with a model that keeps the behaviour those comparisons rest on:
//!
//! * the same three topologies, as pairwise round-trip times
//!   ([`ClusterConfig::virginia`], [`ClusterConfig::us`],
//!   [`ClusterConfig::global`]);
//! * weak operations run at the client's local replica and commit there,
//!   then replicate asynchronously after a one-way delay, costing CPU at
//!   every other replica. Their latency does not depend on the RTTs;
//! * serializable transactions take FIFO record locks in canonical order
//!   and hold them through two majority-quorum round trips (prepare and
//!   commit), so the RTTs set their latency and lock queues on hot
//!   records cap their throughput;
//! * each operation occupies a replica's CPU in proportion to the fields
//!   it moves, so wide rows and log-aggregating reads cost more.
//!
//! It does not claim MongoDB's absolute numbers: the CPU cost model is a
//! fixed constant, and storage, indexes, query planning, disk, network
//! jitter, failures and leader elections are not modelled. Only ratios
//! between configurations on one topology carry over, such as refactored
//! weak execution matching or beating the original and refactored
//! serializable execution far outrunning the original. The scheduled mode
//! (below) shows that a decoded witness is observable under the model's
//! replication and visibility rules, not that MongoDB would produce it.
//!
//! The simulator has two execution modes:
//!
//! * **closed-loop** ([`run_simulation`]) — the throughput/latency mode:
//!   random workload transactions driven by a client population until the
//!   configured duration elapses;
//! * **scheduled** ([`run_schedule`]) — the witness-replay mode: a
//!   [`ConcreteSchedule`] decoded from a detector SAT witness is executed
//!   deterministically (explicit invocations and replication steps, no
//!   randomness, no clock) and the anomaly's observable predicate is
//!   checked against what each read actually saw.
//!
//! # Examples
//!
//! ```
//! use atropos_sim::*;
//!
//! let workload = Workload::new(vec![TxnProfile {
//!     name: "ping".into(),
//!     weight: 1.0,
//!     serializable: true,
//!     ops: vec![OpProfile {
//!         table: "T".into(), kind: OpKind::Write,
//!         key: KeyDist::Uniform(64), fields: 1, scan_factor: 1.0,
//!     }],
//! }]);
//! let mut config = SimConfig::new(ClusterConfig::global(), 4);
//! config.duration_ms = 1_000.0;
//! let stats = run_simulation(&workload, &config);
//! // Global-cluster coordination costs well over 100 ms per transaction.
//! assert!(stats.avg_latency_ms > 100.0);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod schedule;
pub mod sim;
pub mod stats;
pub mod workload;

pub use cluster::ClusterConfig;
pub use schedule::{
    run_schedule, ConcreteSchedule, RecordAccess, ScheduleEvent, ScheduleOutcome, ScheduledOp,
    VisibilityCheck,
};
pub use sim::{run_simulation, CostModel, SimConfig};
pub use stats::RunStats;
pub use workload::{ConcreteTxn, KeyDist, OpKind, OpProfile, TxnProfile, Workload};
