//! Courseware: the course-management application of the paper's running
//! example (Fig. 1), extended to five transactions over three tables.

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/courseware.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/courseware.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded Courseware source parses")
}

/// Transaction mix for dynamic experiments.
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![
        ("getSt", 40.0),
        ("setSt", 10.0),
        ("regSt", 25.0),
        ("unregSt", 10.0),
        ("checkAvail", 15.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::check_program;

    #[test]
    fn parses_and_checks() {
        let p = program();
        check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 5);
        assert_eq!(p.schemas.len(), 3);
    }
}
