//! SEATS: the airline ticketing benchmark — 6 transactions over 8 tables.

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/seats.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/seats.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded SEATS source parses")
}

/// Transaction mix (the SEATS specification profile).
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![
        ("findFlights", 10.0),
        ("findOpenSeats", 35.0),
        ("newReservation", 20.0),
        ("updateCustomer", 10.0),
        ("updateReservation", 15.0),
        ("deleteReservation", 10.0),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_and_checks() {
        let p = super::program();
        atropos_dsl::check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 6);
        assert_eq!(p.schemas.len(), 8);
    }
}
