//! Twitter: the micro-blogging benchmark from OLTP-Bench — users, tweets,
//! a follower graph, and per-user statistics (5 transactions, 4 tables).

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/twitter.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/twitter.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded Twitter source parses")
}

/// Transaction mix (read-heavy, like the OLTP-Bench default).
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![
        ("getTweet", 35.0),
        ("getUserProfile", 35.0),
        ("postTweet", 20.0),
        ("follow", 7.0),
        ("unfollow", 3.0),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_and_checks() {
        let p = super::program();
        atropos_dsl::check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 5);
        assert_eq!(p.schemas.len(), 4);
    }
}
