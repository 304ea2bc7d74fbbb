//! Property suite pinning the **soundness of the pair fingerprint** behind
//! the repair loop's verdict cache: any generated mutation that changes a
//! command's detector-visible summary (access sets, schema, kind, key
//! specification, ordering, data-flow variables) must change the
//! transaction fingerprint, while untouched transactions and pure
//! relabelings keep theirs.
//!
//! An unsound fingerprint — one blind to some summary field — must fail
//! *here*, at the definition, not as an unexplained verdict divergence in
//! the end-to-end `repair_incremental_vs_scratch` suite.

use std::collections::BTreeSet;

use atropos_detect::{txn_fingerprint, CmdKind, CmdSummary, KeySpec, TxnSummary};
use proptest::prelude::*;

const FIELDS: [&str; 5] = ["f0", "f1", "f2", "f3", "f4"];
const SCHEMAS: [&str; 3] = ["A", "B", "C"];

fn subset(bits: u8) -> BTreeSet<String> {
    FIELDS
        .iter()
        .enumerate()
        .filter(|(i, _)| bits & (1 << i) != 0)
        .map(|(_, f)| (*f).to_owned())
        .collect()
}

fn key_spec(choice: u8) -> KeySpec {
    match choice % 3 {
        0 => KeySpec::Keyed {
            key: "k".to_owned(),
            constant: choice.is_multiple_of(2),
        },
        1 => KeySpec::Scan,
        _ => KeySpec::Fresh,
    }
}

fn cmd_kind(choice: u8) -> CmdKind {
    match choice % 4 {
        0 => CmdKind::Select,
        1 => CmdKind::Update,
        2 => CmdKind::Insert,
        _ => CmdKind::Delete,
    }
}

/// Raw generator output for one command: (kind, schema, reads, writes,
/// key, bound_var?, uses_vars).
type RawCmd = (u8, u8, u8, u8, u8, bool, u8);

fn build_txn(name: &str, raw: &[RawCmd]) -> TxnSummary {
    let commands = raw
        .iter()
        .enumerate()
        .map(|(i, &(kind, schema, reads, writes, key, bound, uses))| CmdSummary {
            label: atropos_dsl::CmdLabel(format!("L{i}")),
            kind: cmd_kind(kind),
            schema: SCHEMAS[schema as usize % SCHEMAS.len()].to_owned(),
            reads: subset(reads),
            writes: subset(writes),
            key: key_spec(key),
            prog_index: i,
            bound_var: bound.then(|| format!("v{i}")),
            uses_vars: subset(uses)
                .into_iter()
                .map(|f| format!("var_{f}"))
                .collect(),
        })
        .collect();
    TxnSummary {
        name: name.to_owned(),
        commands,
    }
}

/// The eight summary-changing mutations the cache must be sensitive to.
/// Every variant is constructed to guarantee an actual change on any
/// command it is applied to.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    AddRead,
    AddWrite,
    ToggleKind,
    RenameSchema,
    ToggleKeySpec,
    ShiftOrder,
    AddUsedVar,
    ToggleBoundVar,
}

const MUTATIONS: [Mutation; 8] = [
    Mutation::AddRead,
    Mutation::AddWrite,
    Mutation::ToggleKind,
    Mutation::RenameSchema,
    Mutation::ToggleKeySpec,
    Mutation::ShiftOrder,
    Mutation::AddUsedVar,
    Mutation::ToggleBoundVar,
];

fn apply(txn: &TxnSummary, which: usize, target: usize) -> TxnSummary {
    let mut out = txn.clone();
    let at = target % out.commands.len();
    let c = &mut out.commands[at];
    match MUTATIONS[which % MUTATIONS.len()] {
        Mutation::AddRead => {
            c.reads.insert("zz_fresh_field".to_owned());
        }
        Mutation::AddWrite => {
            c.writes.insert("zz_fresh_field".to_owned());
        }
        Mutation::ToggleKind => {
            c.kind = match c.kind {
                CmdKind::Select => CmdKind::Update,
                CmdKind::Update => CmdKind::Insert,
                CmdKind::Insert => CmdKind::Delete,
                CmdKind::Delete => CmdKind::Select,
            };
        }
        Mutation::RenameSchema => {
            c.schema.push_str("_moved");
        }
        Mutation::ToggleKeySpec => {
            c.key = match &c.key {
                KeySpec::Scan => KeySpec::Fresh,
                KeySpec::Fresh => KeySpec::Keyed {
                    key: "zz".to_owned(),
                    constant: false,
                },
                KeySpec::Keyed { .. } => KeySpec::Scan,
            };
        }
        Mutation::ShiftOrder => {
            // Splitting/merging shifts later commands: bump the program
            // index as a removed-predecessor would.
            c.prog_index += 1;
        }
        Mutation::AddUsedVar => {
            c.uses_vars.insert("zz_fresh_var".to_owned());
        }
        Mutation::ToggleBoundVar => {
            c.bound_var = match c.bound_var {
                Some(_) => None,
                None => Some("zz_bound".to_owned()),
            };
        }
    }
    out
}

fn raw_cmd() -> impl Strategy<Value = RawCmd> {
    (
        0u8..4,
        0u8..3,
        0u8..32,
        0u8..32,
        0u8..6,
        any::<bool>(),
        0u8..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Soundness: every summary-changing mutation changes the fingerprint.
    #[test]
    fn mutations_always_change_the_fingerprint(
        raw in prop::collection::vec(raw_cmd(), 1..5),
        which in 0usize..8,
        target in 0usize..16,
    ) {
        let txn = build_txn("t", &raw);
        let fp = txn_fingerprint(&txn);
        // Determinism: recomputation is stable.
        prop_assert_eq!(fp, txn_fingerprint(&txn));
        let mutated = apply(&txn, which, target);
        prop_assert_ne!(fp, txn_fingerprint(&mutated));
    }

    /// Frame rule: mutating one transaction never disturbs another's
    /// fingerprint — untouched pairs keep their cache keys.
    #[test]
    fn untouched_transactions_keep_their_fingerprint(
        raw1 in prop::collection::vec(raw_cmd(), 1..5),
        raw2 in prop::collection::vec(raw_cmd(), 1..5),
        which in 0usize..8,
        target in 0usize..16,
    ) {
        let t1 = build_txn("t1", &raw1);
        let t2 = build_txn("t2", &raw2);
        let (fp1, fp2) = (txn_fingerprint(&t1), txn_fingerprint(&t2));
        let t1_mutated = apply(&t1, which, target);
        prop_assert_ne!(txn_fingerprint(&t1_mutated), fp1);
        prop_assert_eq!(txn_fingerprint(&t2), fp2);
    }

    /// Label blindness: a pure relabeling keeps the fingerprint, so
    /// relabeled-but-unchanged pairs still hit the cache.
    #[test]
    fn pure_relabelings_preserve_the_fingerprint(
        raw in prop::collection::vec(raw_cmd(), 1..5),
    ) {
        let txn = build_txn("t", &raw);
        let mut relabeled = txn.clone();
        for c in &mut relabeled.commands {
            c.label = atropos_dsl::CmdLabel(format!("{}_renamed", c.label.0));
        }
        prop_assert_eq!(txn_fingerprint(&txn), txn_fingerprint(&relabeled));
    }
}
