//! FMKe: the realistic key-value healthcare benchmark (patients,
//! pharmacies, prescriptions) — 7 transactions over 7 tables.

use atropos_dsl::{parse, Program};

/// DSL source of the benchmark, the committed `examples/corpus/fmke.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/fmke.dsl");

/// Parses the benchmark program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded FMKe source parses")
}

/// Transaction mix (FMKe is read-dominated).
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![
        ("createPrescription", 10.0),
        ("processPrescription", 10.0),
        ("getPrescription", 25.0),
        ("getPatient", 20.0),
        ("getPharmacy", 20.0),
        ("getFacilityStaff", 10.0),
        ("completeTreatment", 5.0),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_and_checks() {
        let p = super::program();
        atropos_dsl::check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 7);
        assert_eq!(p.schemas.len(), 7);
    }
}
