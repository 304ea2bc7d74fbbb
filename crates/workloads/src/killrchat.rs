//! KillrChat: the scalable chat application (users, rooms, messages) —
//! 5 transactions over 3 tables.

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/killrchat.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/killrchat.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded KillrChat source parses")
}

/// Transaction mix.
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![
        ("createRoom", 2.0),
        ("joinRoom", 14.0),
        ("leaveRoom", 9.0),
        ("postMessage", 45.0),
        ("readRoom", 30.0),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_and_checks() {
        let p = super::program();
        atropos_dsl::check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 5);
        assert_eq!(p.schemas.len(), 3);
    }
}
