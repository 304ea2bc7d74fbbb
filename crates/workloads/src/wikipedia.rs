//! Wikipedia: the MediaWiki workload — 5 transactions over 12 tables,
//! almost entirely read-only except for the page-edit path.

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/wikipedia.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/wikipedia.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded Wikipedia source parses")
}

/// Transaction mix (overwhelmingly reads, per the OLTP-Bench trace).
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![
        ("getPageAnonymous", 60.0),
        ("getPageAuthenticated", 30.0),
        ("addToWatchlist", 3.0),
        ("removeFromWatchlist", 2.0),
        ("updatePage", 5.0),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_and_checks() {
        let p = super::program();
        atropos_dsl::check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 5);
        assert_eq!(p.schemas.len(), 12);
    }
}
