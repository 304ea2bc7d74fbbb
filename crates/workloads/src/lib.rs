//! # atropos-workloads
//!
//! The nine OLTP benchmarks of the paper's evaluation (Table 1), written in
//! the Atropos DSL from their public specifications, plus the machinery
//! that turns any DSL program — original or refactored — into an abstract
//! workload for the performance simulator.
//!
//! | Benchmark  | Txns | Tables | Source spec |
//! |------------|------|--------|-------------|
//! | TPC-C      | 5    | 9      | TPC-C v5.11 (single warehouse) |
//! | SEATS      | 6    | 8      | H-Store SEATS |
//! | Courseware | 5    | 3      | the paper's Fig. 1 running example |
//! | SmallBank  | 6    | 3      | OLTP-Bench SmallBank |
//! | Twitter    | 5    | 4      | OLTP-Bench Twitter |
//! | FMKe       | 7    | 7      | FMKe healthcare benchmark |
//! | SIBench    | 2    | 1      | snapshot-isolation microbenchmark |
//! | Wikipedia  | 5    | 12     | OLTP-Bench Wikipedia |
//! | Killrchat  | 5    | 3      | KillrChat reference app |
//!
//! # Examples
//!
//! ```
//! let bench = atropos_workloads::benchmark("SmallBank").unwrap();
//! assert_eq!(bench.program.transactions.len(), 6);
//! ```

#![warn(missing_docs)]

pub mod courseware;
pub mod fmke;
pub mod killrchat;
pub mod profiles;
pub mod registry;
pub mod relay;
pub mod seats;
pub mod sibench;
pub mod smallbank;
pub mod tpcc;
pub mod twitter;
pub mod wikipedia;

pub use profiles::derive_workload;
pub use registry::{all_benchmarks, benchmark, chain_scenarios, Benchmark};
