//! Pins the solver's search step for step on formulas that conflict.
//!
//! Seeded random 3-SAT instances just below the satisfiability threshold
//! (3.8 to 4.1 clauses per variable) make the solver conflict, restart and
//! delete learnt clauses; a few instances are refuted outright. Each instance answers a fixed sequence of assumption
//! queries on one solver, and after every query [`GOLDEN`] pins the answer,
//! a digest of the model or of the failed-assumption core, and the
//! solver's cumulative statistics. A change to branching, propagation,
//! conflict analysis, restarts or learnt-clause deletion moves some row.
//!
//! Both a plain solver and a proof-logging one ([`Solver::with_proofs`])
//! must produce the table, so proof logging changes no search step: the
//! refutations the certificate checker accepts come from the same search
//! the detector's SAT reference runs with proofs off. On a mismatch the
//! assertion prints the table the solver produced, in this file's syntax.

use atropos_sat::{Lit, SolveResult, Solver, Var};

/// Variables and clauses per instance.
const INSTANCES: [(usize, usize); 8] = [
    (100, 410),
    (120, 492),
    (140, 574),
    (160, 656),
    (180, 738),
    (200, 780),
    (220, 858),
    (240, 912),
];
/// Queries per instance: none assumed first, then 1, 2, ... literals.
const QUERIES: usize = 8;

/// One query's outcome: instance, query, answer, digest of the model or
/// failed core, then the solver's decisions, propagations, conflicts,
/// restarts and deleted learnt clauses so far.
type Row = (usize, usize, bool, u64, u64, u64, u64, u64, u64);

/// A xorshift64 stream: the same seed gives the same instance everywhere.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn lit(&mut self, vars: usize) -> Lit {
        let v = Var(self.below(vars) as u32);
        Lit::new(v, self.next() & 1 == 1)
    }
}

/// FNV-1a over a tag byte and a byte stream.
fn digest(tag: u8, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in std::iter::once(tag).chain(bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs every instance's query sequence on solvers `new_solver` builds
/// and returns one row per query.
fn search_table(new_solver: fn() -> Solver) -> Vec<Row> {
    let mut rows = Vec::new();
    for (inst, &(vars, clauses)) in INSTANCES.iter().enumerate() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (inst as u64 + 1).wrapping_mul(0xA24B_AED4));
        let mut s = new_solver();
        for _ in 0..vars {
            s.new_var();
        }
        for _ in 0..clauses {
            // Three distinct variables per clause.
            let mut clause: Vec<Lit> = Vec::with_capacity(3);
            while clause.len() < 3 {
                let l = rng.lit(vars);
                if clause.iter().all(|c| c.var() != l.var()) {
                    clause.push(l);
                }
            }
            s.add_clause(clause);
        }
        for query in 0..QUERIES {
            let assumptions: Vec<Lit> = (0..query).map(|_| rng.lit(vars)).collect();
            let result = s.solve_with_assumptions(&assumptions);
            let digest = match &result {
                SolveResult::Sat(model) => digest(1, model.iter().map(|&b| u8::from(b))),
                SolveResult::Unsat => digest(
                    0,
                    s.failed_assumptions()
                        .iter()
                        .flat_map(|l| (l.index() as u32).to_le_bytes()),
                ),
            };
            let st = s.stats();
            rows.push((
                inst,
                query,
                result.is_sat(),
                digest,
                st.decisions,
                st.propagations,
                st.conflicts,
                st.restarts,
                st.deleted,
            ));
        }
    }
    rows
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (0, 0, false, 12638153115695167455, 691, 12161, 543, 4, 0),
    (0, 1, false, 12638153115695167455, 691, 12161, 543, 4, 0),
    (0, 2, false, 12638153115695167455, 691, 12161, 543, 4, 0),
    (0, 3, false, 12638153115695167455, 691, 12161, 543, 4, 0),
    (0, 4, false, 12638153115695167455, 691, 12161, 543, 4, 0),
    (0, 5, false, 12638153115695167455, 691, 12161, 543, 4, 0),
    (0, 6, false, 12638153115695167455, 691, 12161, 543, 4, 0),
    (0, 7, false, 12638153115695167455, 691, 12161, 543, 4, 0),
    (1, 0, true, 7687546107939348500, 917, 20143, 724, 5, 0),
    (1, 1, true, 12132883513977630727, 1116, 25050, 874, 5, 0),
    (1, 2, false, 5509511376066245097, 1299, 29740, 1033, 5, 0),
    (1, 3, false, 16971516628333924943, 1328, 30391, 1057, 5, 0),
    (1, 4, true, 2009833950694951211, 1418, 32262, 1118, 5, 0),
    (1, 5, false, 12868088947625644291, 1513, 34250, 1188, 5, 0),
    (1, 6, false, 11521786032600056301, 1537, 34810, 1208, 5, 0),
    (1, 7, false, 2556998602919965910, 1613, 36600, 1274, 5, 0),
    (2, 0, false, 12638153115695167455, 3936, 98989, 3330, 16, 2099),
    (2, 1, false, 12638153115695167455, 3936, 98989, 3330, 16, 2099),
    (2, 2, false, 12638153115695167455, 3936, 98989, 3330, 16, 2099),
    (2, 3, false, 12638153115695167455, 3936, 98989, 3330, 16, 2099),
    (2, 4, false, 12638153115695167455, 3936, 98989, 3330, 16, 2099),
    (2, 5, false, 12638153115695167455, 3936, 98989, 3330, 16, 2099),
    (2, 6, false, 12638153115695167455, 3936, 98989, 3330, 16, 2099),
    (2, 7, false, 12638153115695167455, 3936, 98989, 3330, 16, 2099),
    (3, 0, false, 12638153115695167455, 6267, 172805, 5271, 28, 3309),
    (3, 1, false, 12638153115695167455, 6267, 172805, 5271, 28, 3309),
    (3, 2, false, 12638153115695167455, 6267, 172805, 5271, 28, 3309),
    (3, 3, false, 12638153115695167455, 6267, 172805, 5271, 28, 3309),
    (3, 4, false, 12638153115695167455, 6267, 172805, 5271, 28, 3309),
    (3, 5, false, 12638153115695167455, 6267, 172805, 5271, 28, 3309),
    (3, 6, false, 12638153115695167455, 6267, 172805, 5271, 28, 3309),
    (3, 7, false, 12638153115695167455, 6267, 172805, 5271, 28, 3309),
    (4, 0, true, 9644948528319602254, 2070, 56619, 1643, 10, 0),
    (4, 1, true, 9644948528319602254, 2092, 56799, 1643, 10, 0),
    (4, 2, true, 6463046749962157950, 2113, 56979, 1643, 10, 0),
    (4, 3, true, 6462092373869060027, 2139, 57159, 1643, 10, 0),
    (4, 4, false, 15465370343688531518, 3078, 85137, 2416, 13, 997),
    (4, 5, true, 2760000538526267010, 4583, 131501, 3637, 15, 1992),
    (4, 6, true, 4045261787565531679, 6788, 199145, 5457, 27, 4088),
    (4, 7, false, 15807669507851947552, 7128, 208105, 5738, 28, 4088),
    (5, 0, true, 6244633691091423636, 375, 10150, 243, 2, 0),
    (5, 1, true, 9879908695003441501, 412, 10350, 243, 2, 0),
    (5, 2, true, 5361268108251045390, 444, 10550, 243, 2, 0),
    (5, 3, true, 1377392690590650725, 1975, 59497, 1449, 9, 0),
    (5, 4, true, 11062365423337538565, 3847, 115397, 2901, 14, 1001),
    (5, 5, true, 11105192781628769620, 3940, 117696, 2948, 14, 1001),
    (5, 6, true, 1030915445190814610, 3988, 117934, 2950, 14, 1001),
    (5, 7, false, 4261688610100492440, 5985, 185167, 4636, 21, 3102),
    (6, 0, true, 17821959612239631854, 1468, 43604, 1061, 6, 0),
    (6, 1, true, 17821959612239631854, 1524, 43824, 1061, 6, 0),
    (6, 2, true, 17821959612239631854, 1580, 44044, 1061, 6, 0),
    (6, 3, true, 10104206387361217170, 9514, 314802, 7379, 30, 4642),
    (6, 4, true, 12080813381063500329, 10565, 350806, 8230, 30, 7101),
    (6, 5, true, 14007334085927586601, 10648, 352360, 8259, 30, 7101),
    (6, 6, true, 2582569235867527376, 12029, 401612, 9386, 30, 8099),
    (6, 7, true, 16241352758684783542, 13658, 458727, 10723, 30, 9095),
    (7, 0, true, 13415467176248733138, 303, 8771, 186, 1, 0),
    (7, 1, true, 13298273247469844488, 3851, 130909, 2894, 14, 999),
    (7, 2, true, 3525336086142981177, 4323, 147664, 3246, 14, 1999),
    (7, 3, false, 1631457045173773066, 4323, 147665, 3246, 14, 1999),
    (7, 4, true, 2910947638314591589, 5350, 184490, 4031, 14, 2998),
    (7, 5, true, 2910947638314591589, 5405, 184730, 4031, 14, 2998),
    (7, 6, true, 14116752032008210308, 6076, 209909, 4542, 14, 2998),
    (7, 7, true, 3075315828756841687, 6262, 216038, 4651, 14, 2998),
];

#[test]
fn search_steps_match_the_recorded_table() {
    for (name, new_solver) in [
        ("plain", Solver::new as fn() -> Solver),
        ("proof-logging", Solver::with_proofs),
    ] {
        let rows = search_table(new_solver);
        // The fixture must exercise what it claims to pin.
        let last: Vec<&Row> = rows.iter().filter(|r| r.1 == QUERIES - 1).collect();
        assert!(last.iter().all(|r| r.6 > 0), "every instance conflicts");
        assert!(last.iter().any(|r| r.7 > 0), "some instance restarts");
        assert!(
            last.iter().any(|r| r.8 > 0),
            "some instance deletes learnt clauses"
        );
        assert!(rows.iter().any(|r| r.2) && rows.iter().any(|r| !r.2));
        let table: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
        assert!(
            rows == GOLDEN,
            "the {name} search moved; the solver now produces:\n{table}"
        );
    }
}
