//! SmallBank: the classic banking micro-benchmark (checking + savings
//! accounts), six transactions, three tables. The balance-moving updates are
//! written in increment form (`bal = x.bal + δ`), the style the logger rule
//! requires — the same style OLTP-Bench's SmallBank uses on the hot path.

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/smallbank.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/smallbank.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded SmallBank source parses")
}

/// The transaction mix used in the performance experiments (uniform over
/// the six transactions, matching the paper's OLTP-Bench default).
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![
        ("balance", 15.0),
        ("depositChecking", 15.0),
        ("transactSavings", 15.0),
        ("amalgamate", 10.0),
        ("writeCheck", 15.0),
        ("sendPayment", 30.0),
    ]
}

/// Number of customer accounts simulated.
pub const ACCOUNTS: u64 = 1000;

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::check_program;

    #[test]
    fn parses_and_checks() {
        let p = program();
        check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 6);
        assert_eq!(p.schemas.len(), 3);
    }

    #[test]
    fn mix_covers_all_transactions() {
        let p = program();
        for (name, w) in mix() {
            assert!(p.transaction(name).is_some(), "unknown txn {name}");
            assert!(w > 0.0);
        }
    }
}
