//! TPC-C: the canonical order-entry OLTP benchmark — 5 transactions over
//! 9 tables (single-warehouse simplification: district ids are globally
//! unique, orders carry two fixed order lines).

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/tpcc.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/tpcc.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded TPC-C source parses")
}

/// Transaction mix (the TPC-C specification percentages).
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![
        ("newOrder", 45.0),
        ("payment", 43.0),
        ("orderStatus", 4.0),
        ("delivery", 4.0),
        ("stockLevel", 4.0),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_and_checks() {
        let p = super::program();
        atropos_dsl::check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 5);
        assert_eq!(p.schemas.len(), 9);
    }
}
