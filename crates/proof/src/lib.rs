//! # atropos-proof
//!
//! An independent RUP/DRAT certificate checker plus a checksummed binary
//! proof format.
//!
//! Every clean verdict the detector emits rests on UNSAT answers from its
//! least-model closure (`atropos_detect`). This crate closes that trust
//! gap: on each UNSAT answer the closure names the clause instances of
//! the reference encoding that its refutation used, the detect layer
//! assembles them into a self-contained certificate, and this crate
//! re-verifies each certificate by **reverse unit propagation** — a
//! deliberately separate implementation that shares no code (not even
//! the literal type) with the detector, and depends on no other crate of
//! the workspace. Literals here are DIMACS-style `i32`s: variable `v` is
//! `v` (positive) or `-v` (negated), never `0`.
//!
//! A certificate is a sequence of [`Step`]s:
//!
//! * [`Step::Input`] — an original problem clause. The inputs embedded in
//!   the certificate *are* the CNF being refuted — for the detector's
//!   certificates, only the clause instances the refutation needs —
//!   making the blob self-contained (checkable without re-running the
//!   encoder).
//! * [`Step::Add`] — a deduced clause. The checker verifies it is RUP:
//!   asserting the negation of every literal and unit-propagating over
//!   the live clause database must yield a conflict.
//! * [`Step::Delete`] — a clause leaving the database. Deletions the
//!   checker cannot match (or that would drop a unit) are ignored —
//!   the lax drat-trim convention; soundness is unaffected because every
//!   database clause is implied by the inputs.
//! * [`Step::Assume`] — one query assumption, installed as a permanent
//!   unit. Assumptions certify `CNF ∧ assumptions ⊢ ⊥`; steps before the
//!   first `Assume` are checked against the CNF alone.
//!
//! A certificate is **accepted** ([`check`]) when every `Add` passes its
//! RUP check and some `Add` is the empty clause (the explicit ⊥ the
//! derivation must reach). The binary format ([`Proof::encode`]) carries
//! a magic header and a trailing FNV-1a checksum so corrupted blobs are
//! rejected before checking begins ([`Proof::decode`]).
//!
//! ## Decoding bounds
//!
//! Blobs come from outside the process (the persistent verdict store
//! carries them between processes, and audits re-check them), so one
//! validating pass stands between the bytes and every allocation.
//! [`Proof::decode`] and [`check_blob`] share it; it checks the magic, the
//! checksum, every tag, length and literal, and rejects what it cannot
//! bound:
//!
//! * a step's declared length is never trusted for an allocation: at most
//!   the words left in the payload are read, then the step is
//!   [`DecodeError::Truncated`];
//! * `i32::MIN`, which has no negation, is [`DecodeError::Malformed`];
//! * so is any variable larger than the payload's byte length, which keeps
//!   the checker's per-variable tables linear in the blob (real
//!   certificates name a few thousand variables in megabytes);
//! * so is a blob over 4 GiB, whose offsets would overflow the checker's
//!   `u32` arena.
//!
//! The pass yields one flat literal buffer plus a `(kind, start, len)`
//! record per step; [`Proof::decode`] materializes [`Step`]s from it,
//! while [`check_blob`] checks it in place.
//!
//! ## Checker layout
//!
//! [`check`] and [`check_blob`] drive one clause database that allocates
//! nothing per clause. Literals are coded `2·var + sign`, so negation flips
//! bit 0 and sorting codes sorts by variable. Stored clauses sit back to
//! back in one `u32` arena behind a three-word header (length, content
//! hash, next clause in its hash chain). Watch lists carry a blocker
//! literal, so a satisfied clause is skipped without touching the arena.
//! Values live in one array indexed by literal code, and every clause is
//! normalized (sorted, deduplicated, tautology-checked) in one reused
//! buffer. Deletions find their clause through the content-hash chains,
//! comparing full contents, so colliding hashes never delete the wrong
//! clause.

#![warn(missing_docs)]

/// One step of a proof certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// An original problem clause (DIMACS literals).
    Input(Vec<i32>),
    /// A deduced clause; must be RUP over the live database.
    Add(Vec<i32>),
    /// A clause removed from the database.
    Delete(Vec<i32>),
    /// A query assumption, installed as a permanent unit.
    Assume(i32),
}

/// A proof certificate: an ordered list of steps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Proof {
    /// The steps, in emission order.
    pub steps: Vec<Step>,
}

/// Why a blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The blob is shorter than the fixed header + checksum.
    Truncated,
    /// The magic header does not match [`MAGIC`].
    BadMagic,
    /// The trailing FNV-1a checksum does not match the payload.
    BadChecksum,
    /// A step tag, length, or literal is malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "proof blob truncated"),
            DecodeError::BadMagic => write!(f, "bad proof magic"),
            DecodeError::BadChecksum => write!(f, "proof checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed proof: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a decoded certificate was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// An `Add` step failed its reverse-unit-propagation check.
    NotRup {
        /// Index of the offending step.
        step: usize,
    },
    /// The proof never derives the empty clause.
    NoEmptyClause,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotRup { step } => write!(f, "step {step} is not RUP"),
            CheckError::NoEmptyClause => write!(f, "proof does not derive the empty clause"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Statistics of one accepted certificate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Steps processed.
    pub steps: usize,
    /// Input clauses loaded.
    pub inputs: usize,
    /// Deduced clauses RUP-verified.
    pub rup_checks: usize,
    /// Deletions honoured (matched in the database).
    pub deletions: usize,
    /// Assumptions installed.
    pub assumptions: usize,
}

/// Magic header of the binary proof format (`ATRPF`, version 1).
pub const MAGIC: &[u8; 8] = b"ATRPF\x01\0\0";

/// A step's kind; the discriminant is its wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Input = 0,
    Add = 1,
    Delete = 2,
    Assume = 3,
}

impl Kind {
    fn from_tag(tag: u8) -> Option<Kind> {
        match tag {
            0 => Some(Kind::Input),
            1 => Some(Kind::Add),
            2 => Some(Kind::Delete),
            3 => Some(Kind::Assume),
            _ => None,
        }
    }
}

impl Step {
    /// The step's kind and literals; an assumption is one literal.
    fn parts(&self) -> (Kind, &[i32]) {
        match self {
            Step::Input(l) => (Kind::Input, l),
            Step::Add(l) => (Kind::Add, l),
            Step::Delete(l) => (Kind::Delete, l),
            Step::Assume(a) => (Kind::Assume, std::slice::from_ref(a)),
        }
    }
}

/// The checksum of the binary format: FNV-1a folded over little-endian
/// `u64` words (then the remainder bytes) instead of single bytes, so
/// checksumming stays a negligible slice of certificate production even
/// for multi-megabyte proofs. Any single flipped byte still lands in
/// exactly one folded word, so corruption detection is preserved.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("exact chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Plain byte-wise 64-bit FNV-1a — the hash behind [`proof_hash`]. Kept
/// dependency-free on purpose: this crate must stay independent of the
/// detection stack it audits.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fingerprint of an encoded certificate, stored next to cached
/// verdicts so reports can name a proof without embedding it twice.
pub fn proof_hash(blob: &[u8]) -> u64 {
    fnv1a(blob)
}

/// Appends one step's wire encoding (`tag u8, len u32, len × i32`, all
/// little-endian) to `out`.
fn encode_step(out: &mut Vec<u8>, step: &Step) {
    let (kind, lits) = step.parts();
    out.push(kind as u8);
    out.extend_from_slice(&(lits.len() as u32).to_le_bytes());
    for &l in lits {
        out.extend_from_slice(&l.to_le_bytes());
    }
}

impl Proof {
    /// Serializes the certificate: [`MAGIC`], a `u32` step count, each
    /// step as `tag u8, len u32, len × i32` (all little-endian), and a
    /// trailing FNV-1a checksum of everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.steps.len() * 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.steps.len() as u32).to_le_bytes());
        for step in &self.steps {
            encode_step(&mut out, step);
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes and validates a blob produced by [`Proof::encode`].
    ///
    /// # Errors
    ///
    /// Rejects wrong magic, checksum mismatches (any corrupted payload
    /// byte), truncation, unknown tags, zero literals, `i32::MIN`,
    /// variables larger than the payload's byte length, trailing bytes,
    /// and blobs over 4 GiB.
    pub fn decode(blob: &[u8]) -> Result<Proof, DecodeError> {
        let flat = Flat::decode(blob)?;
        let steps = flat
            .steps()
            .map(|(kind, lits)| match kind {
                Kind::Input => Step::Input(lits.to_vec()),
                Kind::Add => Step::Add(lits.to_vec()),
                Kind::Delete => Step::Delete(lits.to_vec()),
                Kind::Assume => Step::Assume(lits[0]),
            })
            .collect();
        Ok(Proof { steps })
    }
}

/// A validated blob: every step's literals back to back, plus one
/// `(kind, start, len)` record per step indexing them.
struct Flat {
    lits: Vec<i32>,
    steps: Vec<(Kind, u32, u32)>,
    /// The largest variable any literal names.
    max_var: u32,
}

impl Flat {
    /// The one validating pass behind [`Proof::decode`] and
    /// [`check_blob`]. Errors come in the order a front-to-back reader
    /// meets them: a step's literals are validated before its tag.
    fn decode(blob: &[u8]) -> Result<Flat, DecodeError> {
        if blob.len() < MAGIC.len() + 4 + 8 {
            return Err(DecodeError::Truncated);
        }
        if &blob[..MAGIC.len()] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let (payload, sum_bytes) = blob.split_at(blob.len() - 8);
        let declared = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if checksum(payload) != declared {
            return Err(DecodeError::BadChecksum);
        }
        // Arena offsets and literal indices are `u32`s. A stored clause
        // takes fewer arena words than its step takes payload bytes, so
        // this bound keeps every offset in range.
        if u32::try_from(payload.len()).is_err() {
            return Err(DecodeError::Malformed("blob over 4 GiB"));
        }
        let mut pos = MAGIC.len();
        let take_u32 = |pos: &mut usize| -> Result<u32, DecodeError> {
            let bytes = payload.get(*pos..*pos + 4).ok_or(DecodeError::Truncated)?;
            *pos += 4;
            Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
        };
        let count = take_u32(&mut pos)? as usize;
        let mut flat = Flat {
            lits: Vec::with_capacity((payload.len() - pos) / 4),
            steps: Vec::with_capacity(count.min(payload.len() / 5)),
            max_var: 0,
        };
        for _ in 0..count {
            let tag = *payload.get(pos).ok_or(DecodeError::Truncated)?;
            pos += 1;
            let len = take_u32(&mut pos)? as usize;
            let start = flat.lits.len();
            // Read only the words the payload holds; a longer declared
            // length is truncation, found after them.
            let words = len.min((payload.len() - pos) / 4);
            for word in payload[pos..pos + 4 * words].chunks_exact(4) {
                let l = i32::from_le_bytes(word.try_into().expect("4 bytes"));
                if l == 0 {
                    return Err(DecodeError::Malformed("zero literal"));
                }
                if l == i32::MIN {
                    return Err(DecodeError::Malformed("unnegatable literal"));
                }
                let var = l.unsigned_abs();
                if var as usize > payload.len() {
                    return Err(DecodeError::Malformed("variable out of range"));
                }
                flat.max_var = flat.max_var.max(var);
                flat.lits.push(l);
            }
            pos += 4 * words;
            if words < len {
                return Err(DecodeError::Truncated);
            }
            let kind = Kind::from_tag(tag).ok_or(DecodeError::Malformed("unknown tag"))?;
            if kind == Kind::Assume && len != 1 {
                return Err(DecodeError::Malformed("assume arity"));
            }
            flat.steps.push((kind, start as u32, len as u32));
        }
        if pos != payload.len() {
            return Err(DecodeError::Malformed("trailing bytes"));
        }
        Ok(flat)
    }

    fn steps(&self) -> impl ExactSizeIterator<Item = (Kind, &[i32])> {
        self.steps.iter().map(|&(kind, start, len)| {
            let start = start as usize;
            (kind, &self.lits[start..start + len as usize])
        })
    }
}

/// Decodes and checks a blob in one call — the certificate audits' and the
/// test harnesses' entry point.
///
/// # Errors
///
/// Returns the decode error or the check rejection, stringified (callers
/// only branch on accept/reject; the message is for diagnostics).
pub fn check_blob(blob: &[u8]) -> Result<CheckReport, String> {
    let flat = Flat::decode(blob).map_err(|e| e.to_string())?;
    run(flat.steps(), flat.max_var).map_err(|e| e.to_string())
}

/// Verifies a certificate by reverse unit propagation.
///
/// # Errors
///
/// Rejects the first `Add` step that is not RUP over the live database,
/// and certificates that never add the empty clause.
pub fn check(proof: &Proof) -> Result<CheckReport, CheckError> {
    let max_var = proof
        .steps
        .iter()
        .flat_map(|s| s.parts().1)
        .map(|l| l.unsigned_abs())
        .max()
        .unwrap_or(0);
    run(proof.steps.iter().map(Step::parts), max_var)
}

/// The checking loop behind [`check`] and [`check_blob`]: `steps` in
/// order over one database sized for them and `max_var`.
fn run<'a>(
    steps: impl ExactSizeIterator<Item = (Kind, &'a [i32])>,
    max_var: u32,
) -> Result<CheckReport, CheckError> {
    let mut db = Db::new(max_var, steps.len());
    let mut report = CheckReport::default();
    let mut empty_added = false;
    for (idx, (kind, lits)) in steps.enumerate() {
        report.steps += 1;
        match kind {
            Kind::Input => {
                report.inputs += 1;
                db.add_clause(lits);
            }
            Kind::Add => {
                if !db.rup(lits) {
                    return Err(CheckError::NotRup { step: idx });
                }
                report.rup_checks += 1;
                if lits.is_empty() {
                    empty_added = true;
                } else {
                    db.add_clause(lits);
                }
            }
            Kind::Delete => {
                report.deletions += usize::from(db.delete_clause(lits));
            }
            Kind::Assume => {
                report.assumptions += 1;
                db.assume(lits[0]);
            }
        }
    }
    if empty_added {
        Ok(report)
    } else {
        Err(CheckError::NoEmptyClause)
    }
}

// Literal values in `Db::vals`.
const UNDEF: i8 = 0;
const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// Arena words before a stored clause's literals: its length, its content
/// hash, and the next clause in its hash chain.
const HEADER: usize = 3;
/// Set in a deleted clause's length word.
const DELETED: u32 = 1 << 31;
/// The end of a hash chain.
const NIL: u32 = u32::MAX;

/// A literal's code: `2·var` when positive, `2·var + 1` when negated.
fn code(l: i32) -> u32 {
    (l.unsigned_abs() << 1) | u32::from(l < 0)
}

/// FxHash-style multiply-rotate over a normalized clause's codes: the
/// deletion index's key. It is unkeyed, so a crafted blob can make its
/// chains long, but such a blob can force quadratic work through its RUP
/// steps anyway; a keyed hash would not lower that bound.
fn content_hash(codes: &[u32]) -> u32 {
    let mut h = 0u64;
    for &c in codes {
        h = (h.rotate_left(5) ^ u64::from(c)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h >> 32) as u32
}

/// A watch-list entry: a clause watching this literal, and another of its
/// literals whose truth satisfies the clause.
#[derive(Clone, Copy)]
struct Watch {
    cref: u32,
    blocker: u32,
}

/// The checker's clause database: two-watched-literal unit propagation
/// with a persistent root trail (inputs, deduced units, assumptions) and
/// rollback-able scratch assignments for RUP checks. Only clauses of two
/// or more literals are stored; units live on the trail.
struct Db {
    /// Stored clauses back to back, each `[len, hash, next, lits…]` with
    /// the watched literals at positions 0 and 1. Deleted clauses keep
    /// their words (flagged [`DELETED`]).
    arena: Vec<u32>,
    /// Watch lists by watched literal code; entries for deleted clauses
    /// go stale and are dropped on traversal.
    watches: Vec<Vec<Watch>>,
    /// Value per literal code.
    vals: Vec<i8>,
    trail: Vec<u32>,
    prop_head: usize,
    /// A conflict reached by *persistent* propagation (root or assumption
    /// level) — the formula plus assumptions is refuted from here on.
    conflict: bool,
    /// The clause being normalized: sorted, deduplicated codes.
    buf: Vec<u32>,
    /// Deletion index: the head of each hash chain of live clauses.
    buckets: Vec<u32>,
}

impl Db {
    fn new(max_var: u32, steps: usize) -> Db {
        let codes = 2 * (max_var as usize + 1);
        Db {
            arena: Vec::new(),
            watches: vec![Vec::new(); codes],
            vals: vec![UNDEF; codes],
            trail: Vec::new(),
            prop_head: 0,
            conflict: false,
            buf: Vec::new(),
            buckets: vec![NIL; steps.next_power_of_two()],
        }
    }

    fn val(&self, c: u32) -> i8 {
        self.vals[c as usize]
    }

    /// Makes `c` true. Caller guarantees it is currently undefined.
    fn assign(&mut self, c: u32) {
        self.vals[c as usize] = TRUE;
        self.vals[(c ^ 1) as usize] = FALSE;
        self.trail.push(c);
    }

    /// Normalizes `lits` into `buf`; false for a tautology.
    fn normalize(&mut self, lits: &[i32]) -> bool {
        self.buf.clear();
        self.buf.extend(lits.iter().map(|&l| code(l)));
        self.buf.sort_unstable();
        self.buf.dedup();
        !self.buf.windows(2).any(|w| w[0] ^ 1 == w[1])
    }

    /// Propagates from the current head; returns `false` on conflict (the
    /// head is left where the conflict was found).
    fn propagate(&mut self) -> bool {
        while self.prop_head < self.trail.len() {
            let falsified = self.trail[self.prop_head] ^ 1;
            self.prop_head += 1;
            let mut ws = std::mem::take(&mut self.watches[falsified as usize]);
            let (mut i, mut keep) = (0, 0);
            let mut conflict = false;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.val(w.blocker) == TRUE {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let c = w.cref as usize;
                let len = self.arena[c];
                if len & DELETED != 0 {
                    continue; // stale entry for a deleted clause
                }
                let lits = c + HEADER;
                // Keep the falsified watch at position 1.
                if self.arena[lits] == falsified {
                    self.arena.swap(lits, lits + 1);
                }
                let other = self.arena[lits];
                let w = Watch {
                    cref: w.cref,
                    blocker: other,
                };
                if self.val(other) == TRUE {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                // Find a replacement watch: a non-false literal other
                // than the two current watches.
                let end = lits + len as usize;
                if let Some(k) = (lits + 2..end).find(|&k| self.val(self.arena[k]) != FALSE) {
                    let new_watch = self.arena[k];
                    self.arena.swap(lits + 1, k);
                    self.watches[new_watch as usize].push(w);
                    continue;
                }
                // No replacement: the clause is unit (other) or false.
                ws[keep] = w;
                keep += 1;
                match self.val(other) {
                    UNDEF => self.assign(other),
                    FALSE => {
                        // Keep un-traversed entries verbatim so the watch
                        // lists survive the rolled-back scratch conflict.
                        conflict = true;
                        ws.copy_within(i.., keep);
                        keep += ws.len() - i;
                        break;
                    }
                    _ => {}
                }
            }
            ws.truncate(keep);
            self.watches[falsified as usize] = ws;
            if conflict {
                return false;
            }
        }
        true
    }

    /// Installs a clause and performs persistent propagation of any
    /// resulting units. Empty or all-false clauses set the persistent
    /// conflict flag; units go on the trail without being stored.
    fn add_clause(&mut self, lits: &[i32]) {
        if !self.normalize(lits) || self.conflict {
            return; // a tautology never propagates, safe to skip
        }
        let mut free = self.buf.iter().filter(|&&c| self.val(c) != FALSE);
        let Some(&first) = free.next() else {
            self.conflict = true; // empty, or every literal false
            return;
        };
        if free.next().is_none() && self.val(first) == UNDEF {
            self.assign(first); // unit under the persistent trail
        }
        if self.buf.len() >= 2 {
            self.store();
        }
        if !self.propagate() {
            self.conflict = true;
        }
    }

    /// Appends the clause in `buf` to the arena, true or undefined
    /// literals first — the watch invariant under the established
    /// persistent assignment — and indexes it for deletion.
    fn store(&mut self) {
        let cref =
            u32::try_from(self.arena.len()).expect("arena offsets are bounded by the blob size");
        let hash = content_hash(&self.buf);
        let bucket = hash as usize & (self.buckets.len() - 1);
        let vals = &self.vals;
        self.arena
            .extend([self.buf.len() as u32, hash, self.buckets[bucket]]);
        self.arena
            .extend(self.buf.iter().filter(|&&c| vals[c as usize] != FALSE));
        self.arena
            .extend(self.buf.iter().filter(|&&c| vals[c as usize] == FALSE));
        self.buckets[bucket] = cref;
        let at = cref as usize + HEADER;
        let (w0, w1) = (self.arena[at], self.arena[at + 1]);
        self.watches[w0 as usize].push(Watch { cref, blocker: w1 });
        self.watches[w1 as usize].push(Watch { cref, blocker: w0 });
    }

    /// Deletes one live clause matching `lits` (normalized). Unit and
    /// empty deletions are ignored (drat-trim convention — they may be
    /// reasons of the persistent trail). Returns whether a clause was
    /// removed.
    fn delete_clause(&mut self, lits: &[i32]) -> bool {
        if !self.normalize(lits) || self.buf.len() < 2 {
            return false;
        }
        let hash = content_hash(&self.buf);
        let bucket = hash as usize & (self.buckets.len() - 1);
        let mut prev = None;
        let mut cur = self.buckets[bucket];
        while cur != NIL {
            let c = cur as usize;
            let next = self.arena[c + 2];
            if self.arena[c + 1] == hash && self.holds_buf(c) {
                match prev {
                    None => self.buckets[bucket] = next,
                    Some(p) => self.arena[p + 2] = next,
                }
                self.arena[c] |= DELETED; // watch entries go stale
                return true;
            }
            prev = Some(c);
            cur = next;
        }
        false
    }

    /// Whether the clause at `c` has exactly `buf`'s content. Both sides
    /// are duplicate-free, so equal lengths plus containment suffice.
    fn holds_buf(&self, c: usize) -> bool {
        let len = self.arena[c] as usize;
        len == self.buf.len()
            && self.arena[c + HEADER..c + HEADER + len]
                .iter()
                .all(|l| self.buf.binary_search(l).is_ok())
    }

    /// Installs a query assumption as a permanent unit (no clause).
    fn assume(&mut self, a: i32) {
        if self.conflict {
            return;
        }
        let c = code(a);
        match self.val(c) {
            FALSE => self.conflict = true,
            TRUE => {}
            _ => {
                self.assign(c);
                self.conflict = !self.propagate();
            }
        }
    }

    /// Reverse-unit-propagation check: asserting the negation of every
    /// literal of `lits` on top of the persistent trail must conflict.
    /// Scratch assignments are rolled back; persistent state (including
    /// watch positions, which stay valid under un-assignment) survives.
    fn rup(&mut self, lits: &[i32]) -> bool {
        if self.conflict {
            return true; // ⊥ already derived; anything follows
        }
        if !self.normalize(lits) {
            return true; // tautologies are trivially implied
        }
        let mark = self.trail.len();
        let mut proved = false;
        for i in 0..self.buf.len() {
            let c = self.buf[i];
            match self.val(c) {
                TRUE => {
                    proved = true; // ¬c contradicts the trail immediately
                    break;
                }
                FALSE => {}
                _ => self.assign(c ^ 1),
            }
        }
        if !proved {
            proved = !self.propagate();
        }
        // Roll back the scratch assignments.
        for &c in &self.trail[mark..] {
            self.vals[c as usize] = UNDEF;
            self.vals[(c ^ 1) as usize] = UNDEF;
        }
        self.trail.truncate(mark);
        self.prop_head = mark;
        proved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepts(steps: Vec<Step>) -> bool {
        check(&Proof { steps }).is_ok()
    }

    #[test]
    fn trivial_contradiction_checks() {
        assert!(accepts(vec![
            Step::Input(vec![1]),
            Step::Input(vec![-1]),
            Step::Add(vec![]),
        ]));
    }

    #[test]
    fn resolution_chain_checks() {
        // (1 2)(1 -2)(-1 2)(-1 -2) refuted via RUP lemmas 1 and the
        // empty clause.
        assert!(accepts(vec![
            Step::Input(vec![1, 2]),
            Step::Input(vec![1, -2]),
            Step::Input(vec![-1, 2]),
            Step::Input(vec![-1, -2]),
            Step::Add(vec![1]),
            Step::Add(vec![]),
        ]));
    }

    #[test]
    fn non_rup_lemma_is_rejected() {
        let r = check(&Proof {
            steps: vec![
                Step::Input(vec![1, 2]),
                Step::Add(vec![1]), // not implied by (1 ∨ 2)
                Step::Add(vec![]),
            ],
        });
        assert_eq!(r, Err(CheckError::NotRup { step: 1 }));
    }

    #[test]
    fn missing_empty_clause_is_rejected() {
        let r = check(&Proof {
            steps: vec![
                Step::Input(vec![1]),
                Step::Input(vec![-1]),
                // conflict is derivable, but never claimed
            ],
        });
        assert_eq!(r, Err(CheckError::NoEmptyClause));
    }

    #[test]
    fn early_empty_clause_is_rejected() {
        let r = check(&Proof {
            steps: vec![
                Step::Add(vec![]),
                Step::Input(vec![1]),
                Step::Input(vec![-1]),
            ],
        });
        assert_eq!(r, Err(CheckError::NotRup { step: 0 }));
    }

    #[test]
    fn assumptions_scope_the_refutation() {
        // (−1 ∨ 2) is satisfiable; under assumptions 1 and −2 it is not.
        assert!(accepts(vec![
            Step::Input(vec![-1, 2]),
            Step::Assume(1),
            Step::Assume(-2),
            Step::Add(vec![]),
        ]));
        // Without the assumptions the same proof must fail.
        assert!(!accepts(vec![Step::Input(vec![-1, 2]), Step::Add(vec![])]));
    }

    #[test]
    fn failed_core_clause_checks_before_assumptions() {
        // The detect-layer trailer shape: Add(¬core) is RUP over the CNF
        // alone, then the core literals are assumed, then ⊥.
        assert!(accepts(vec![
            Step::Input(vec![-1, -2]),
            Step::Add(vec![-1, -2]), // ¬core, trivially RUP (subsumed)
            Step::Assume(1),
            Step::Assume(2),
            Step::Add(vec![]),
        ]));
    }

    #[test]
    fn deletion_of_a_needed_clause_breaks_later_rup() {
        // Neither binary clause propagates at root, so the deletion is
        // the only difference between the two runs. (Consequences already
        // on the persistent trail are *not* retracted by deletions — the
        // drat-trim convention.)
        assert!(accepts(vec![
            Step::Input(vec![1, 2]),
            Step::Input(vec![1, -2]),
            Step::Add(vec![1]),
            Step::Input(vec![-1]),
            Step::Add(vec![]),
        ]));
        assert_eq!(
            check(&Proof {
                steps: vec![
                    Step::Input(vec![1, 2]),
                    Step::Input(vec![1, -2]),
                    Step::Delete(vec![1, 2]),
                    Step::Add(vec![1]), // no longer derivable
                    Step::Input(vec![-1]),
                    Step::Add(vec![]),
                ],
            }),
            Err(CheckError::NotRup { step: 3 })
        );
    }

    #[test]
    fn unmatched_and_unit_deletions_are_ignored() {
        assert!(accepts(vec![
            Step::Input(vec![1]),
            Step::Delete(vec![1]),    // unit: ignored
            Step::Delete(vec![5, 6]), // never added: ignored
            Step::Input(vec![-1]),
            Step::Add(vec![]),
        ]));
    }

    #[test]
    fn tautologies_are_inert() {
        assert!(accepts(vec![
            Step::Input(vec![1, -1]),
            Step::Add(vec![2, -2]),
            Step::Input(vec![1]),
            Step::Input(vec![-1]),
            Step::Add(vec![]),
        ]));
    }

    #[test]
    fn encode_decode_round_trips() {
        let proof = Proof {
            steps: vec![
                Step::Input(vec![1, -2, 3]),
                Step::Add(vec![-3]),
                Step::Delete(vec![1, -2, 3]),
                Step::Assume(2),
                Step::Add(vec![]),
            ],
        };
        let blob = proof.encode();
        assert_eq!(Proof::decode(&blob).unwrap(), proof);
        assert_eq!(proof_hash(&blob), fnv1a(&blob));
    }

    #[test]
    fn corrupted_blob_is_rejected() {
        let blob = Proof {
            steps: vec![Step::Input(vec![1]), Step::Add(vec![])],
        }
        .encode();
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            assert!(Proof::decode(&bad).is_err(), "flipped byte {i} accepted");
        }
        let mut truncated = blob.clone();
        truncated.pop();
        assert!(Proof::decode(&truncated).is_err());
    }

    /// Seals a hand-built payload with a valid checksum.
    fn seal(mut payload: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        payload
    }

    /// A one-step blob declaring `len` literals and carrying `words`.
    fn one_step(tag: u8, len: u32, words: &[i32]) -> Vec<u8> {
        let mut payload = MAGIC.to_vec();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(tag);
        payload.extend_from_slice(&len.to_le_bytes());
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        seal(payload)
    }

    #[test]
    fn zero_literal_is_malformed() {
        assert_eq!(
            Proof::decode(&one_step(Kind::Input as u8, 1, &[0])),
            Err(DecodeError::Malformed("zero literal"))
        );
    }

    #[test]
    fn oversized_step_length_is_truncated() {
        // A declared length of u32::MAX must not size an allocation.
        let blob = one_step(Kind::Input as u8, u32::MAX, &[1, -2]);
        assert_eq!(Proof::decode(&blob), Err(DecodeError::Truncated));
        assert_eq!(check_blob(&blob), Err("proof blob truncated".to_string()));
        // The words present are still validated first, front to back.
        assert_eq!(
            Proof::decode(&one_step(Kind::Input as u8, u32::MAX, &[1, 0])),
            Err(DecodeError::Malformed("zero literal"))
        );
    }

    #[test]
    fn unnegatable_literal_is_malformed() {
        let blob = one_step(Kind::Input as u8, 1, &[i32::MIN]);
        assert_eq!(
            Proof::decode(&blob),
            Err(DecodeError::Malformed("unnegatable literal"))
        );
        assert_eq!(
            check_blob(&blob),
            Err("malformed proof: unnegatable literal".to_string())
        );
    }

    #[test]
    fn variable_beyond_blob_size_is_malformed() {
        let blob = one_step(Kind::Input as u8, 1, &[-(1 << 30)]);
        assert_eq!(
            Proof::decode(&blob),
            Err(DecodeError::Malformed("variable out of range"))
        );
        assert_eq!(
            check_blob(&blob),
            Err("malformed proof: variable out of range".to_string())
        );
        // The bound is the payload's byte length, inclusive.
        let payload_len = (blob.len() - 8) as i32;
        let at_bound = one_step(Kind::Input as u8, 1, &[payload_len]);
        assert_eq!(
            Proof::decode(&at_bound),
            Ok(Proof {
                steps: vec![Step::Input(vec![payload_len])]
            })
        );
        assert_eq!(
            Proof::decode(&one_step(Kind::Input as u8, 1, &[payload_len + 1])),
            Err(DecodeError::Malformed("variable out of range"))
        );
    }

    /// Hand-built certificates that carry lemmas and use every step kind:
    /// a RUP refutation of the eight clauses over three variables, whose
    /// lemmas replace the inputs they subsume, and an eight-literal
    /// implication chain refuted with its two ends assumed apart.
    fn certificates() -> Vec<Vec<u8>> {
        let all_eight = (0..8).map(|signs: i32| {
            let lit = |v: i32| if signs >> (v - 1) & 1 == 1 { -v } else { v };
            Step::Input(vec![lit(1), lit(2), lit(3)])
        });
        let mut cube: Vec<Step> = all_eight.collect();
        for (a, b) in [(1, 2), (1, -2), (-1, 2), (-1, -2)] {
            cube.push(Step::Add(vec![a, b]));
            cube.push(Step::Delete(vec![a, b, 3]));
            cube.push(Step::Delete(vec![a, b, -3]));
        }
        cube.extend([Step::Add(vec![1]), Step::Add(vec![])]);
        let mut chain: Vec<Step> = (1..8).map(|v| Step::Input(vec![-v, v + 1])).collect();
        chain.extend([
            Step::Add(vec![-1, 8]),
            Step::Assume(1),
            Step::Assume(-8),
            Step::Add(vec![]),
        ]);
        [cube, chain]
            .into_iter()
            .map(|steps| Proof { steps }.encode())
            .collect()
    }

    /// Byte offset of every literal word in an encoded certificate.
    fn literal_offsets(proof: &Proof) -> Vec<usize> {
        let mut offsets = Vec::new();
        let mut pos = MAGIC.len() + 4;
        for step in &proof.steps {
            let n = step.parts().1.len();
            offsets.extend((0..n).map(|j| pos + 5 + 4 * j));
            pos += 5 + 4 * n;
        }
        offsets
    }

    #[test]
    fn resealed_byte_mutations_never_panic() {
        // Corrupt valid certificates and re-seal the checksum, so the
        // mutants reach the validator and the checker instead of stopping
        // at the checksum. Half the mutants flip one to three payload
        // bytes; the other half rewrite one to three literals with small
        // ones, which mostly still decode and so exercise the checker.
        let mut rng = proptest::rng::TestRng::seed_from_u64(0xA7_2025);
        let (mut decoded, mut rejected) = (0, 0);
        for blob in certificates() {
            assert!(check_blob(&blob).is_ok());
            let offsets = literal_offsets(&Proof::decode(&blob).unwrap());
            let payload = &blob[..blob.len() - 8];
            for _ in 0..600 {
                let mut bad = payload.to_vec();
                let rewrite = rng.bool();
                for _ in 0..=rng.below(3) {
                    if rewrite {
                        let at = offsets[rng.below(offsets.len() as u64) as usize];
                        let var = 1 + rng.below(48) as i32;
                        let lit = if rng.bool() { var } else { -var };
                        bad[at..at + 4].copy_from_slice(&lit.to_le_bytes());
                    } else {
                        let at = rng.below(payload.len() as u64) as usize;
                        bad[at] ^= (1 + rng.below(255)) as u8;
                    }
                }
                let bad = seal(bad);
                let checked = check_blob(&bad);
                match Proof::decode(&bad) {
                    Ok(proof) => {
                        decoded += 1;
                        assert_eq!(checked, check(&proof).map_err(|e| e.to_string()));
                    }
                    Err(e) => {
                        rejected += 1;
                        assert_eq!(checked, Err(e.to_string()));
                    }
                }
            }
        }
        assert!(
            decoded > 300 && rejected > 300,
            "{decoded} decoded, {rejected} rejected"
        );
    }
}
