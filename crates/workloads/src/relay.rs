//! Relay: a 3-hop message-feed scenario (think a miniature Twitter
//! fan-out service) crafted for the **triple detection mode** — the
//! workload axis ISSUE 5 opens beyond Table 1.
//!
//! A `post` writes the canonical message row; a `relay` worker copies the
//! body into a follower's feed row; a `timeline` reader first reads the
//! feed and then backfills from the canonical message table. Every
//! *pairwise* projection of this program is anomaly-free at every
//! consistency level — no transaction read-modify-writes a shared field,
//! no transaction writes twice, no transaction reads the same record
//! twice — so the paper's two-instance oracle reports it clean. Yet under
//! eventual consistency a timeline can observe the relayed copy while
//! missing the origin write it was derived from: a causality violation
//! relayed through an observer chain, realizable only over **three**
//! instances and caught by [`atropos_detect::DetectMode::Triples`]
//! (regression-pinned in `tests/triple_vs_pair.rs`). Causal consistency
//! closes visibility through the chain, so the anomaly also witnesses the
//! EC/CC boundary.

use atropos_dsl::{parse, Program};

/// DSL source of the scenario, the committed `examples/corpus/relay.dsl`.
pub const SOURCE: &str = include_str!("../../../examples/corpus/relay.dsl");

/// Parses the scenario program.
///
/// # Panics
///
/// Panics only if the embedded source is malformed (a bug).
pub fn program() -> Program {
    parse(SOURCE).expect("embedded Relay source parses")
}

/// Transaction mix (read-heavy, as a fan-out service is).
pub fn mix() -> Vec<(&'static str, f64)> {
    vec![("post", 10.0), ("relay", 30.0), ("timeline", 60.0)]
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_and_checks() {
        let p = super::program();
        atropos_dsl::check_program(&p).unwrap();
        assert_eq!(p.transactions.len(), 3);
        assert_eq!(p.schemas.len(), 2);
    }
}
