//! SIBench: the snapshot-isolation micro-benchmark — one table, a reader
//! and a read-modify-write updater (2 transactions, 1 anomaly in Table 1).

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/sibench.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/sibench.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded SIBench source parses")
}

/// Transaction mix.
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![("readItem", 50.0), ("updateItem", 50.0)]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_and_checks() {
        let p = super::program();
        atropos_dsl::check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 2);
        assert_eq!(p.schemas.len(), 1);
    }
}
