//! Post-processing: dead-code elimination, final command merging, and
//! obsolete-table removal (the `post_process` step of Fig. 10).

use atropos_dsl::{Program, Stmt};

use crate::merge::try_merging;

/// Removes selects whose bound variable is never read, iterating to a fixed
/// point (removing one select can make another's filter the only use of a
/// variable). Returns the labels removed.
pub fn eliminate_dead_selects(program: &mut Program) -> Vec<String> {
    let mut removed = Vec::new();
    loop {
        let mut progress = false;
        for t in program.transactions.iter_mut() {
            let mut dead: Vec<String> = Vec::new();
            for s in t.commands() {
                if let Stmt::Select(c) = s {
                    if !t.uses_var(&c.var) {
                        dead.push(c.label.0.clone());
                    }
                }
            }
            if !dead.is_empty() {
                t.retain_commands(|s| s.label().is_none_or(|l| !dead.contains(&l.0)));
                removed.extend(dead);
                progress = true;
            }
        }
        if !progress {
            return removed;
        }
    }
}

/// Drops schemas no command accesses (obsolete tables). Returns their names.
pub fn drop_obsolete_tables(program: &mut Program) -> Vec<String> {
    let accessed = |name: &str| {
        let mut commands = program.transactions.iter().flat_map(|t| t.commands());
        commands.any(|s| s.schema() == Some(name))
    };
    let obsolete: Vec<String> = program
        .schemas
        .iter()
        .filter(|s| !accessed(&s.name))
        .map(|s| s.name.clone())
        .collect();
    program.schemas.retain(|s| !obsolete.contains(&s.name));
    obsolete
}

/// Final merging sweep: repeatedly merges any mergeable same-transaction
/// command pair until no merge applies. Returns the merged label pairs.
pub fn merge_all(program: &mut Program) -> Vec<(String, String)> {
    let mut merges = Vec::new();
    loop {
        let mut progress = false;
        'outer: for t in &program.transactions {
            let cmds = t.commands();
            for i in 0..cmds.len() {
                for j in (i + 1)..cmds.len() {
                    let (Some(l1), Some(l2)) = (cmds[i].label(), cmds[j].label()) else {
                        continue;
                    };
                    if let Some(next) = try_merging(program, l1, l2) {
                        merges.push((l1.0.clone(), l2.0.clone()));
                        *program = next;
                        progress = true;
                        break 'outer;
                    }
                }
            }
        }
        if !progress {
            return merges;
        }
    }
}

/// The full post-processing pipeline: dead selects, final merges, dead
/// selects again (merging can orphan variables), then obsolete tables.
pub fn post_process(program: &mut Program) -> PostProcessReport {
    let mut removed = eliminate_dead_selects(program);
    let merged = merge_all(program);
    removed.extend(eliminate_dead_selects(program));
    let dropped = drop_obsolete_tables(program);
    PostProcessReport {
        removed_selects: removed,
        merged_pairs: merged,
        dropped_tables: dropped,
    }
}

/// What post-processing did, for the repair log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostProcessReport {
    /// Labels of dead selects removed.
    pub removed_selects: Vec<String>,
    /// Command label pairs merged.
    pub merged_pairs: Vec<(String, String)>,
    /// Obsolete tables dropped.
    pub dropped_tables: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use atropos_dsl::parse;

    #[test]
    fn removes_transitively_dead_selects() {
        let mut p = parse(
            "schema T { id: int key, v: int }
             txn t(k: int) {
                 @S1 x := select v from T where id = k;
                 @S2 y := select v from T where id = x.v;
                 return 0;
             }",
        )
        .unwrap();
        let removed = eliminate_dead_selects(&mut p);
        // S2 is dead (y unused); then S1 becomes dead (x only used by S2).
        assert_eq!(removed, vec!["S2".to_owned(), "S1".to_owned()]);
        assert_eq!(p.command_count(), 0);
    }

    #[test]
    fn keeps_selects_used_by_return() {
        let mut p = parse(
            "schema T { id: int key, v: int }
             txn t(k: int) {
                 @S1 x := select v from T where id = k;
                 return x.v;
             }",
        )
        .unwrap();
        assert!(eliminate_dead_selects(&mut p).is_empty());
        assert_eq!(p.command_count(), 1);
    }

    #[test]
    fn drops_unaccessed_tables() {
        let mut p = parse(
            "schema T { id: int key, v: int }
             schema DEADTBL { id: int key, w: int }
             txn t(k: int) {
                 update T set v = 1 where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let dropped = drop_obsolete_tables(&mut p);
        assert_eq!(dropped, vec!["DEADTBL".to_owned()]);
        assert_eq!(p.schemas.len(), 1);
    }

    #[test]
    fn schema_accessed_detects_usage() {
        // U is accessed only inside an `if`; V by nothing.
        let mut p = parse(
            "schema T { id: int key, v: int, w: int }
             schema U { id: int key, z: int }
             schema V { id: int key }
             txn t(k: int) {
                 @S1 x := select v from T where id = k;
                 if (x.v > 0) {
                     @U1 update U set z = x.v where id = k;
                 }
                 return x.v;
             }",
        )
        .unwrap();
        assert_eq!(drop_obsolete_tables(&mut p), vec!["V".to_owned()]);
        assert!(p.schema("T").is_some());
        assert!(p.schema("U").is_some());
    }

    #[test]
    fn post_process_merges_and_cleans() {
        let mut p = parse(
            "schema T { id: int key, a: int, b: int }
             schema OLD { id: int key, z: int }
             txn t(k: int) {
                 @U1 update T set a = 1 where id = k;
                 @U2 update T set b = 2 where id = k;
                 @S1 x := select a from T where id = k;
                 return 0;
             }",
        )
        .unwrap();
        let rep = post_process(&mut p);
        assert!(rep.removed_selects.contains(&"S1".to_owned()));
        assert_eq!(rep.merged_pairs, vec![("U1".to_owned(), "U2".to_owned())]);
        assert_eq!(rep.dropped_tables, vec!["OLD".to_owned()]);
        assert_eq!(p.command_count(), 1);
    }
}
