//! Whole-program static schedule analysis: deadlock, notification
//! conservation, and one-sided buffer races — without simulating time.
//!
//! The GASPI collectives in this repository are one-sided: a put lands in a
//! remote buffer with no matching receive, so a wrong schedule fails
//! *silently* (lost updates, stale reads) or hangs (a wait whose
//! notifications never arrive).  [`mod@crate::validate`] catches local per-op
//! mistakes; this module proves global properties of the whole schedule
//! before the engine spends a single virtual nanosecond on it:
//!
//! 1. **Deadlock / starvation** — an abstract, timeless execution over
//!    per-(rank, notify-id) notification budgets.  Every notification is
//!    assumed to arrive the instant it is issued (the most optimistic
//!    schedule), so a wait that still cannot be satisfied when the abstract
//!    execution stalls is blocked on suppliers that are themselves
//!    transitively blocked: a cross-rank wait-for cycle.  A wait whose
//!    demand exceeds the *total* possible production for an id is reported
//!    separately as [`AnalysisError::Starvation`] — a terminal deficit no
//!    interleaving can repair.
//! 2. **Notification conservation** — notifications produced but never
//!    consumable ([`AnalysisError::NotificationLeak`]) and waits that can
//!    under-consume relative to a worst-case arrival interleaving
//!    ([`AnalysisError::ConsumptionRace`]): a `WaitNotifyAny` with
//!    `count < ids.len()` may drain an arrival a later wait depends on,
//!    depending purely on arrival order.
//! 3. **One-sided buffer races** — the op IR carries no segment offsets, so
//!    the landing slot of a put is identified by its `(destination rank,
//!    notification id)` pair, which is exactly how the paper's collectives
//!    address their slots.  Flagged: the same slot written by two different
//!    ranks ([`AnalysisError::MultiWriterRace`]), a writer reusing a slot
//!    without an intervening acknowledgement chain ordering the reuse after
//!    the reader's consumption ([`AnalysisError::UnsyncedSlotReuse`]), and a
//!    payload that is never waited on at all before the program ends
//!    ([`AnalysisError::UnsyncedPayloadRead`]) — data that lands but is
//!    never safe to read.
//!
//! ## Complexity: per unique segment, not per rank
//!
//! All three analyses run on the [`CompiledProgram`] arena, which
//! stores each distinct rank-relative op stream **once**.  Ranks sharing a
//! segment are grouped into *classes*; classes are further split into
//! *pieces* — maximal rank intervals whose incoming supply (which producer
//! op feeds which notification id, and how many times) is uniform — by
//! interval arithmetic over the rank space: a delta-coded put from a class
//! covering `[lo, hi)` supplies `[lo+c, hi+c) mod p` (at most two
//! intervals), and an xor-coded put resolves by decomposing `[lo, hi)`
//! into aligned power-of-two blocks, each of which xor maps onto one
//! aligned block of the same size (at most `O(log p)` intervals — never a
//! per-rank enumeration).  Every per-op check then runs once per piece
//! instead of once per rank, so the p = 2^20 windowed ring — two shared
//! segments, three pieces — is analyzed in the time and memory of a
//! handful of ranks: `O(unique segment ops + supply edges + p)` (the `p`
//! term is the single scan of the rank→segment table; nothing else is
//! per-rank).
//!
//! That bound is per *segment*, so it buys nothing where ranks do not
//! share one.  Whether they do depends on the op streams, not on the
//! program form.  Compute time never splits a segment: the arena keeps
//! durations out of its records, so the fig14 SSP cube, whose every rank
//! computes for its own noisy time, is one class.  Payload bytes do split
//! one: a ring allreduce whose payload does not split evenly over `p` gives
//! every rank its own chunk sizes and interns one segment per rank,
//! compiled from a [`Program`] or from a
//! [`ProgramSource`](crate::ProgramSource) alike — at p = 1024 that is 1024
//! classes, 1024 pieces and 5.24 M segment ops, and every per-piece check
//! runs once per rank.  The exact fallback below is per rank by design; it
//! runs only when the quotient stalls, which no library schedule does.
//!
//! ## Soundness: a quotient, and an exact fallback
//!
//! The abstract execution first advances each piece as one representative
//! rank in lockstep and gates remote supply on the *minimum* cursor over
//! the producing class's pieces — supply is never assumed available before
//! every rank of the producing class could have issued it.  Completion of
//! this quotient therefore implies the engine completes (the engine's
//! schedule is one of the interleavings the optimistic semantics
//! dominates).
//!
//! Lockstep is too coarse for one legitimate pattern: a pipeline *within*
//! one segment — rank 0 puts, rank r waits for r−1 and forwards.  Rank by
//! rank the chain drains, but no piece can take the first step as a unit.
//! So a stalled quotient decides nothing; it hands over to the *exact
//! run*, a timeless execution with one cursor per rank.  An arrival counts
//! the moment its writer passes the put, notify or send; counters are kept
//! per (receiver, id) and per (receiver, source, tag); a worklist wakes the
//! receiver of every new arrival; a barrier releases only when every rank
//! is parked at one; and waits consume by the engine's listed-order rule.
//! For deterministic consumption this counting system is confluent — an
//! enabled op stays enabled until its own rank runs it — so a stall is a
//! deadlock under every arrival order and completion means the engine
//! completes.
//!
//! Consumption is nondeterministic only at a `WaitNotifyAny` demanding
//! fewer ids than it lists: which ids it drains depends on arrival order.
//! A deadlock is therefore `certain` when no rank the exact run left
//! blocked belongs to a class containing such a wait (ranks that finished
//! are exempt: whatever they chose to consume, they produced everything
//! they can).  Blocked ranks are reported grouped by (piece, op index),
//! without the ones whose wait the budget walk already reported as
//! [`AnalysisError::Starvation`].  Blocking `Send` is modeled eagerly
//! (non-blocking): whether a rendezvous handshake blocks is a property of
//! the cost model's eager threshold, not of the schedule.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;

use crate::cluster::RankId;
use crate::compiled::{decode_target, CompiledProgram, OpKind, TargetMode};
use crate::program::{NotifyId, Program};
use crate::validate::ValidationError;

/// A defect found by the static analyzer.
///
/// Each error names a *representative* rank; `ranks_affected` counts how
/// many ranks of the same equivalence class exhibit the identical defect
/// (outside the exact fallback of a stalled quotient, the analyzer never
/// enumerates them individually).
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// A wait demands more arrivals of an id than the whole program can
    /// ever produce for this rank — no interleaving satisfies it.
    Starvation {
        /// Representative blocked rank.
        rank: RankId,
        /// Program-order index of the blocked wait.
        op_index: usize,
        /// The starved notification id.
        id: NotifyId,
        /// Arrivals of `id` this rank's waits consume up to and including
        /// the blocked one.
        required: u64,
        /// Total arrivals of `id` the program can deliver to this rank.
        produced: u64,
        /// Ranks of the same class with the identical deficit.
        ranks_affected: usize,
    },
    /// The exact per-rank execution stalled with ranks blocked on waits
    /// whose remaining suppliers are transitively blocked: a cross-rank
    /// wait-for cycle.
    Deadlock {
        /// One entry per (piece, op index) blocked ranks sit at: the lowest
        /// such rank, the op index, and a description of what it waits for.
        blocked: Vec<BlockedWait>,
        /// True when the stall is a deadlock under every arrival order: no
        /// rank the exact per-rank run left blocked belongs to a class with
        /// a `WaitNotifyAny` demanding fewer ids than it lists, so every
        /// blocked rank consumes deterministically (see the module docs).
        /// Otherwise the deadlock is reachable only under some arrival
        /// orders.
        certain: bool,
    },
    /// Notifications produced for a rank that no wait can ever consume.
    NotificationLeak {
        /// Receiving rank (representative).
        rank: RankId,
        /// The leaked notification id.
        id: NotifyId,
        /// Arrivals of `id` delivered to this rank.
        produced: u64,
        /// Maximum arrivals of `id` this rank's waits can consume.
        consumable: u64,
        /// Ranks of the same class with the identical leak.
        ranks_affected: usize,
    },
    /// A wait can be starved by an adversarial arrival order: earlier
    /// partial `WaitNotifyAny` ops may drain the arrivals it needs.
    ConsumptionRace {
        /// Representative rank.
        rank: RankId,
        /// Program-order index of the endangered wait.
        op_index: usize,
        /// The id that can be drained from under it.
        id: NotifyId,
        /// Arrivals of `id` left in the worst case when the wait runs
        /// (zero or negative means it can starve).
        worst_case_available: i64,
        /// Ranks of the same class with the identical race.
        ranks_affected: usize,
    },
    /// Two different ranks put payloads into the same `(rank, notify-id)`
    /// landing slot: the second arrival overwrites the first regardless of
    /// arrival order.
    MultiWriterRace {
        /// Receiving rank (representative) whose slot is contested.
        rank: RankId,
        /// The contested slot's notification id.
        id: NotifyId,
        /// One contending writer.
        writer_a: RankId,
        /// Another contending writer.
        writer_b: RankId,
        /// Ranks of the same class with the identically contested slot.
        ranks_affected: usize,
    },
    /// A writer puts twice into the same remote slot with no
    /// acknowledgement chain ordering the reuse after the reader's
    /// consumption of the first payload — the second put can overwrite
    /// unread data.
    UnsyncedSlotReuse {
        /// The reusing writer (representative).
        writer: RankId,
        /// The slot's owning rank.
        rank: RankId,
        /// The reused slot's notification id.
        id: NotifyId,
        /// Op index of the first put in the writer's program.
        first_put: usize,
        /// Op index of the overwriting put.
        second_put: usize,
        /// Ranks of the same class with the identical reuse.
        ranks_affected: usize,
    },
    /// A payload lands in a slot its owner never waits on: the data is
    /// never ordered before any read and is silently unusable.
    UnsyncedPayloadRead {
        /// The slot's owning rank (representative).
        rank: RankId,
        /// The never-awaited slot's notification id.
        id: NotifyId,
        /// The rank whose payload is lost.
        writer: RankId,
        /// Ranks of the same class with the identical lost payload.
        ranks_affected: usize,
    },
}

/// The ranks of one piece blocked at one op in a [`AnalysisError::Deadlock`]
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedWait {
    /// Lowest rank of the piece blocked at this op.
    pub rank: RankId,
    /// Program-order index of the blocked op.
    pub op_index: usize,
    /// Human-readable description of what the op waits for.
    pub what: String,
    /// Ranks of the same piece blocked at the same op.
    pub ranks_affected: usize,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Starvation { rank, op_index, id, required, produced, ranks_affected } => write!(
                f,
                "starvation: rank {rank} (x{ranks_affected}) op {op_index} needs {required} arrival(s) of \
                 notification {id} but the program produces only {produced}"
            ),
            AnalysisError::Deadlock { blocked, certain } => {
                write!(f, "{} deadlock; blocked:", if *certain { "certain" } else { "possible" })?;
                for b in blocked {
                    write!(f, " [rank {} (x{}) at op {}: {}]", b.rank, b.ranks_affected, b.op_index, b.what)?;
                }
                Ok(())
            }
            AnalysisError::NotificationLeak { rank, id, produced, consumable, ranks_affected } => write!(
                f,
                "notification leak: rank {rank} (x{ranks_affected}) receives {produced} arrival(s) of \
                 notification {id} but can consume at most {consumable}"
            ),
            AnalysisError::ConsumptionRace { rank, op_index, id, worst_case_available, ranks_affected } => write!(
                f,
                "consumption race: rank {rank} (x{ranks_affected}) op {op_index} waits on notification {id} \
                 but an adversarial arrival order leaves only {worst_case_available} arrival(s) for it"
            ),
            AnalysisError::MultiWriterRace { rank, id, writer_a, writer_b, ranks_affected } => write!(
                f,
                "buffer race: ranks {writer_a} and {writer_b} both put payloads into slot (rank {rank} \
                 (x{ranks_affected}), notification {id})"
            ),
            AnalysisError::UnsyncedSlotReuse { writer, rank, id, first_put, second_put, ranks_affected } => write!(
                f,
                "buffer race: rank {writer} (x{ranks_affected}) reuses slot (rank {rank}, notification {id}) \
                 at op {second_put} with no acknowledgement ordering it after the consumption of op {first_put}"
            ),
            AnalysisError::UnsyncedPayloadRead { rank, id, writer, ranks_affected } => write!(
                f,
                "buffer race: the payload rank {writer} puts into slot (rank {rank} (x{ranks_affected}), \
                 notification {id}) is never waited on and can never be safely read"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Result of analyzing a program: the defects found plus the structural
/// statistics backing the complexity claim.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Every defect found, in analysis order (conservation, races,
    /// deadlock).
    pub errors: Vec<AnalysisError>,
    /// Rank equivalence classes (= unique `(segment, decode-mode)` pairs).
    pub classes: usize,
    /// Supply-uniform rank intervals actually analyzed.
    pub pieces: usize,
    /// Ranks covered by the analysis.
    pub num_ranks: usize,
}

impl AnalysisReport {
    /// True when no defect of any class was found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// True when no deadlock or starvation was found (the schedule
    /// completes under every arrival order the analysis certifies).
    pub fn is_deadlock_free(&self) -> bool {
        !self.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { .. } | AnalysisError::Starvation { .. }))
    }
}

/// Analyze an already-compiled program (see the [module docs](self)).
pub fn analyze_compiled(prog: &CompiledProgram) -> AnalysisReport {
    Analyzer::new(prog).run()
}

/// Compile (which validates) and analyze a materialized program.
///
/// ```
/// use ec_netsim::{analyze, ProgramBuilder};
///
/// // Rank 0 puts at rank 1, which waits for the notification: clean.
/// let mut b = ProgramBuilder::new(2);
/// b.put_notify(0, 1, 1024, 7);
/// b.wait_notify(1, &[7]);
/// assert!(analyze(&b.build()).unwrap().is_clean());
///
/// // Remove the put and the wait can never be satisfied: starvation.
/// let mut b = ProgramBuilder::new(2);
/// b.wait_notify(1, &[7]);
/// let report = analyze(&b.build()).unwrap();
/// assert!(!report.is_deadlock_free());
/// ```
pub fn analyze(program: &Program) -> Result<AnalysisReport, ValidationError> {
    Ok(analyze_compiled(&program.compile()?))
}

/// A maximal run of ranks sharing one arena segment, as `[lo, hi)`
/// intervals of the rank space.
#[derive(Debug)]
struct Class {
    start: usize,
    len: usize,
    mode: TargetMode,
    ivs: Vec<(usize, usize)>,
    piece_idx: Vec<usize>,
}

/// One incoming supply edge of a piece: `count` arrivals per receiving
/// rank, produced by op `op` of class `class`.
#[derive(Debug, Clone, Copy)]
struct Supply {
    class: u32,
    op: u32,
    count: u64,
    /// Raw target code of the producing op (recovers the writer rank).
    code: u32,
    mode: TargetMode,
    payload: bool,
}

/// A rank interval with a uniform segment *and* uniform incoming supply.
#[derive(Debug)]
struct Piece {
    lo: usize,
    hi: usize,
    class: u32,
    /// Notification supply: id → producing edges.
    notify: HashMap<NotifyId, Vec<Supply>>,
    /// Two-sided message supply: (source rank of the representative, tag)
    /// → producing edges.
    msgs: HashMap<(RankId, u32), Vec<Supply>>,
}

impl Piece {
    fn ranks(&self) -> usize {
        self.hi - self.lo
    }

    /// The rank whose decoded view stands for every rank of the piece.
    fn rep(&self) -> RankId {
        self.lo
    }
}

/// The writer rank whose op with target code `code` reaches receiver `r`.
fn writer_of(r: RankId, code: u32, mode: TargetMode, n: usize) -> RankId {
    match mode {
        TargetMode::Delta => (r + n - code as usize % n) % n,
        TargetMode::Xor => r ^ code as usize,
    }
}

/// Append `[lo, hi) + c (mod n)` to `out` as up to two normalized
/// intervals.
fn shift_interval(lo: usize, hi: usize, c: usize, n: usize, out: &mut Vec<(usize, usize)>) {
    debug_assert!(lo < hi && hi <= n);
    let a = (lo + c) % n;
    let len = hi - lo;
    if a + len <= n {
        out.push((a, a + len));
    } else {
        out.push((a, n));
        out.push((0, a + len - n));
    }
}

/// Receiver intervals of an op with target `code` issued by every rank in
/// `[lo, hi)`.  Delta codes rotate the interval (at most two intervals).
/// Xor codes are resolved by decomposing `[lo, hi)` into aligned
/// power-of-two blocks: xor by any code maps an aligned block `[b, b+2^k)`
/// (with `2^k | b`) onto the aligned block of the same size whose high bits
/// are `b ^ code` — so an arbitrary interval yields at most
/// `O(log(hi - lo))` receiver intervals, never a per-rank enumeration.
fn receiver_intervals(lo: usize, hi: usize, code: u32, mode: TargetMode, n: usize, out: &mut Vec<(usize, usize)>) {
    match mode {
        TargetMode::Delta => shift_interval(lo, hi, code as usize % n, n, out),
        TargetMode::Xor => {
            let code = code as usize;
            let mut a = lo;
            while a < hi {
                // Largest power-of-two block starting at `a` that both
                // respects `a`'s alignment and fits inside `[a, hi)`.
                let align = if a == 0 { hi - a } else { a & a.wrapping_neg() };
                let fit = align.min(hi - a);
                let size = 1usize << (usize::BITS - 1 - fit.leading_zeros());
                let b = (a ^ code) & !(size - 1);
                out.push((b, b + size));
                a += size;
            }
        }
    }
}

/// What a piece's abstract execution is currently blocked on.
#[derive(Debug, Clone, PartialEq)]
enum Stuck {
    /// Done: every op executed.
    Done,
    /// Runnable (or not yet inspected).
    Ready,
    /// A wait or receive whose supply is not available yet.
    Blocked,
    /// Parked at a barrier.
    Barrier,
}

struct PieceState {
    cursor: usize,
    stuck: Stuck,
    consumed: HashMap<NotifyId, u64>,
    msgs_consumed: HashMap<(RankId, u32), u64>,
}

struct Analyzer<'a> {
    prog: &'a CompiledProgram,
    n: usize,
    classes: Vec<Class>,
    pieces: Vec<Piece>,
    /// Sorted piece boundaries (`pieces[i].lo`), for rank → piece lookup.
    piece_starts: Vec<usize>,
    /// Per class (indexed by class id): does any of the class's ops demand
    /// `WaitNotifyAny` with `count < ids.len()`?  Consumption is
    /// nondeterministic exactly for those classes, so a reported deadlock
    /// is only `certain` when no rank left blocked belongs to one.
    partial_any: Vec<bool>,
    errors: Vec<AnalysisError>,
}

impl<'a> Analyzer<'a> {
    fn new(prog: &'a CompiledProgram) -> Self {
        Self {
            prog,
            n: prog.num_ranks(),
            classes: Vec::new(),
            pieces: Vec::new(),
            piece_starts: Vec::new(),
            partial_any: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn run(mut self) -> AnalysisReport {
        self.build_classes();
        self.build_pieces();
        self.conservation_and_races();
        self.abstract_execution();
        AnalysisReport {
            errors: self.errors,
            classes: self.classes.len(),
            pieces: self.pieces.len(),
            num_ranks: self.n,
        }
    }

    /// Group ranks into classes by their `(segment, decode-mode)` entry —
    /// the only per-rank scan in the whole analysis.
    fn build_classes(&mut self) {
        let mut index: HashMap<(usize, usize, TargetMode), usize> = HashMap::new();
        for rank in 0..self.n {
            let key = self.prog.raw_entry(rank);
            match index.entry(key) {
                Entry::Occupied(e) => {
                    let class = &mut self.classes[*e.get()];
                    let last = class.ivs.last_mut().expect("classes always hold an interval");
                    if last.1 == rank {
                        last.1 = rank + 1;
                    } else {
                        class.ivs.push((rank, rank + 1));
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(self.classes.len());
                    self.classes.push(Class {
                        start: key.0,
                        len: key.1,
                        mode: key.2,
                        ivs: vec![(rank, rank + 1)],
                        piece_idx: Vec::new(),
                    });
                }
            }
        }
    }

    /// Split classes into supply-uniform pieces and attribute every
    /// producing op's arrivals to the pieces it reaches.
    fn build_pieces(&mut self) {
        // Gather production edges: (receiver interval, id-or-tag key,
        // producing class/op, payload?).  `scratch` reuses one allocation
        // for the receiver-interval arithmetic.
        struct Contribution {
            lo: usize,
            hi: usize,
            notify: Option<NotifyId>,
            tag: u32,
            supply: Supply,
        }
        let mut contributions: Vec<Contribution> = Vec::new();
        let mut scratch: Vec<(usize, usize)> = Vec::new();
        self.partial_any = vec![false; self.classes.len()];
        for (ci, class) in self.classes.iter().enumerate() {
            for op in 0..class.len {
                let (kind, a, b, _c) = self.prog.raw_op(class.start + op);
                let (notify, tag, payload) = match kind {
                    OpKind::PutNotify => (Some(b), 0, true),
                    OpKind::Notify => (Some(b), 0, false),
                    OpKind::Send | OpKind::Isend => (None, b, false),
                    OpKind::WaitAny => {
                        let count = _c as usize;
                        if count < b as usize {
                            self.partial_any[ci] = true;
                        }
                        continue;
                    }
                    _ => continue,
                };
                let supply = Supply { class: ci as u32, op: op as u32, count: 1, code: a, mode: class.mode, payload };
                for &(lo, hi) in &class.ivs {
                    scratch.clear();
                    receiver_intervals(lo, hi, a, class.mode, self.n, &mut scratch);
                    for &(rlo, rhi) in &scratch {
                        contributions.push(Contribution { lo: rlo, hi: rhi, notify, tag, supply });
                    }
                }
            }
        }

        // Piece boundaries: class interval bounds plus contribution bounds.
        let mut bounds: Vec<usize> = Vec::new();
        for class in &self.classes {
            for &(lo, hi) in &class.ivs {
                bounds.push(lo);
                bounds.push(hi);
            }
        }
        for c in &contributions {
            bounds.push(c.lo);
            bounds.push(c.hi);
        }
        bounds.sort_unstable();
        bounds.dedup();

        // Build pieces (atomic intervals within one class interval).
        let class_of = {
            // Sorted (lo, hi, class) triples for binary search.
            let mut spans: Vec<(usize, usize, u32)> = Vec::new();
            for (ci, class) in self.classes.iter().enumerate() {
                for &(lo, hi) in &class.ivs {
                    spans.push((lo, hi, ci as u32));
                }
            }
            spans.sort_unstable();
            spans
        };
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if lo >= self.n {
                break;
            }
            let i = class_of.partition_point(|&(s, _, _)| s <= lo) - 1;
            let (_, span_hi, ci) = class_of[i];
            debug_assert!(hi <= span_hi, "piece [{lo},{hi}) crosses a class boundary");
            let pi = self.pieces.len();
            self.classes[ci as usize].piece_idx.push(pi);
            self.pieces.push(Piece { lo, hi, class: ci, notify: HashMap::new(), msgs: HashMap::new() });
        }
        self.piece_starts = self.pieces.iter().map(|p| p.lo).collect();

        // Attribute contributions: every contribution covers a whole run of
        // pieces by construction.
        for c in &contributions {
            let mut pi = self.piece_starts.partition_point(|&s| s <= c.lo) - 1;
            while pi < self.pieces.len() && self.pieces[pi].lo < c.hi {
                let piece = &mut self.pieces[pi];
                debug_assert!(piece.lo >= c.lo && piece.hi <= c.hi);
                if let Some(id) = c.notify {
                    push_supply(piece.notify.entry(id).or_default(), c.supply);
                } else {
                    let src = writer_of(piece.rep(), c.supply.code, c.supply.mode, self.n);
                    push_supply(piece.msgs.entry((src, c.tag)).or_default(), c.supply);
                }
                pi += 1;
            }
        }
    }

    /// Fill `buf` with the wait-id list of the op at arena index `idx`
    /// (empty for non-wait ops) and return how many distinct ids the op
    /// must consume.
    fn wait_ids(&self, idx: usize, buf: &mut Vec<NotifyId>) -> usize {
        buf.clear();
        let (kind, a, b, c) = self.prog.raw_op(idx);
        match kind {
            OpKind::WaitOne => {
                buf.push(a);
                1
            }
            OpKind::WaitMany => {
                buf.extend_from_slice(self.prog.pool_ids(a, b));
                b as usize
            }
            OpKind::WaitAny => {
                buf.extend_from_slice(self.prog.pool_ids(a, b));
                c as usize
            }
            _ => 0,
        }
    }

    /// Analysis 2 + 3: per-piece budget walk (leaks, terminal deficits,
    /// adversarial-order consumption races) and slot-identity race checks.
    fn conservation_and_races(&mut self) {
        let mut errors = Vec::new();
        for piece in &self.pieces {
            let class = &self.classes[piece.class as usize];
            let rep = piece.rep();
            let total: HashMap<NotifyId, u64> =
                piece.notify.iter().map(|(&id, srcs)| (id, srcs.iter().map(|s| s.count).sum())).collect();

            // One in-order walk: mandatory and optional consumption per id.
            let mut mand: HashMap<NotifyId, u64> = HashMap::new();
            let mut opt: HashMap<NotifyId, u64> = HashMap::new();
            let mut first_wait: HashMap<NotifyId, usize> = HashMap::new();
            let mut wids: Vec<NotifyId> = Vec::new();
            for op in 0..class.len {
                let idx = class.start + op;
                let (kind, _, _, _) = self.prog.raw_op(idx);
                if !matches!(kind, OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny) {
                    continue;
                }
                let count = self.wait_ids(idx, &mut wids);
                let partial = kind == OpKind::WaitAny && count < wids.len();
                if partial {
                    // Worst case the any-wait cannot find `count` distinct
                    // available ids.
                    let worst_avail = wids
                        .iter()
                        .filter(|&&id| {
                            let t = total.get(&id).copied().unwrap_or(0) as i64;
                            t - mand.get(&id).copied().unwrap_or(0) as i64 - opt.get(&id).copied().unwrap_or(0) as i64
                                >= 1
                        })
                        .count();
                    let best_avail = wids
                        .iter()
                        .filter(|&&id| total.get(&id).copied().unwrap_or(0) > mand.get(&id).copied().unwrap_or(0))
                        .count();
                    if best_avail >= count && worst_avail < count {
                        // Name an id that is actually endangered: available
                        // under some arrival order (counted by `best_avail`)
                        // but drained away in the worst case.
                        let endangered = wids
                            .iter()
                            .copied()
                            .find(|&id| {
                                let t = total.get(&id).copied().unwrap_or(0) as i64;
                                let m = mand.get(&id).copied().unwrap_or(0) as i64;
                                let o = opt.get(&id).copied().unwrap_or(0) as i64;
                                t > m && t - m - o < 1
                            })
                            .unwrap_or(wids[0]);
                        errors.push(AnalysisError::ConsumptionRace {
                            rank: rep,
                            op_index: op,
                            id: endangered,
                            worst_case_available: worst_avail as i64 - count as i64,
                            ranks_affected: piece.ranks(),
                        });
                    }
                    for &id in &wids {
                        *opt.entry(id).or_insert(0) += 1;
                        first_wait.entry(id).or_insert(op);
                    }
                } else {
                    for &id in &wids {
                        let t = total.get(&id).copied().unwrap_or(0);
                        let m = mand.get(&id).copied().unwrap_or(0);
                        let o = opt.get(&id).copied().unwrap_or(0);
                        if t < m + 1 {
                            errors.push(AnalysisError::Starvation {
                                rank: rep,
                                op_index: op,
                                id,
                                required: m + 1,
                                produced: t,
                                ranks_affected: piece.ranks(),
                            });
                        } else if (t as i64) - (m as i64) - (o as i64) < 1 {
                            errors.push(AnalysisError::ConsumptionRace {
                                rank: rep,
                                op_index: op,
                                id,
                                worst_case_available: t as i64 - m as i64 - o as i64,
                                ranks_affected: piece.ranks(),
                            });
                        }
                        *mand.entry(id).or_insert(0) += 1;
                        first_wait.entry(id).or_insert(op);
                    }
                }
            }

            // Conservation: produced beyond what the waits can consume.
            let mut ids: Vec<NotifyId> = total.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let t = total[&id];
                let consumable = mand.get(&id).copied().unwrap_or(0) + opt.get(&id).copied().unwrap_or(0);
                if t > consumable {
                    let payload_writers = self.payload_writers(piece, id);
                    if consumable == 0 && !payload_writers.is_empty() {
                        errors.push(AnalysisError::UnsyncedPayloadRead {
                            rank: rep,
                            id,
                            writer: payload_writers[0].0,
                            ranks_affected: piece.ranks(),
                        });
                    } else {
                        errors.push(AnalysisError::NotificationLeak {
                            rank: rep,
                            id,
                            produced: t,
                            consumable,
                            ranks_affected: piece.ranks(),
                        });
                    }
                }
            }

            // Slot races: distinct writers, and same-writer reuse without
            // an acknowledgement chain.
            let mut slot_ids: Vec<NotifyId> = piece.notify.keys().copied().collect();
            slot_ids.sort_unstable();
            for id in slot_ids {
                let writers = self.payload_writers(piece, id);
                if writers.is_empty() {
                    continue;
                }
                if let Some(w) = writers.windows(2).find(|w| w[0].0 != w[1].0) {
                    errors.push(AnalysisError::MultiWriterRace {
                        rank: rep,
                        id,
                        writer_a: w[0].0,
                        writer_b: w[1].0,
                        ranks_affected: piece.ranks(),
                    });
                }
                // Same writer, two puts: the second must be ordered after
                // the reader consumed the first.
                for w in writers.windows(2).filter(|w| w[0].0 == w[1].0) {
                    let (writer, first_op) = w[0];
                    let second_op = w[1].1;
                    if !self.ack_chain_exists(writer, first_op, second_op, rep, first_wait.get(&id).copied()) {
                        errors.push(AnalysisError::UnsyncedSlotReuse {
                            writer,
                            rank: rep,
                            id,
                            first_put: first_op,
                            second_put: second_op,
                            ranks_affected: piece.ranks(),
                        });
                    }
                }
            }
        }
        self.errors.extend(errors);
    }

    /// Payload-carrying writers of slot `(piece, id)` as sorted
    /// `(writer rank, producing op index)` pairs.
    fn payload_writers(&self, piece: &Piece, id: NotifyId) -> Vec<(RankId, usize)> {
        let mut writers: Vec<(RankId, usize)> = piece
            .notify
            .get(&id)
            .map(|srcs| {
                srcs.iter()
                    .filter(|s| s.payload)
                    .map(|s| (writer_of(piece.rep(), s.code, s.mode, self.n), s.op as usize))
                    .collect()
            })
            .unwrap_or_default();
        writers.sort_unstable();
        writers
    }

    /// True when `writer` waits, between its two puts, on a notification
    /// the reader (`reader_rep`'s class) produces only after consuming the
    /// first put — a one-hop acknowledgement chain making the slot reuse
    /// safe.  `consume_at` is the reader's first wait on the reused id.
    fn ack_chain_exists(
        &self,
        writer: RankId,
        first_put: usize,
        second_put: usize,
        reader_rep: RankId,
        consume_at: Option<usize>,
    ) -> bool {
        let Some(consume_at) = consume_at else {
            return false; // Never consumed: reuse is unsynchronized.
        };
        let reader_class = {
            let pi = self.piece_starts.partition_point(|&s| s <= reader_rep) - 1;
            self.pieces[pi].class
        };
        let wpi = self.piece_starts.partition_point(|&s| s <= writer) - 1;
        let wpiece = &self.pieces[wpi];
        let wclass = &self.classes[wpiece.class as usize];
        let mut wids: Vec<NotifyId> = Vec::new();
        for op in first_put + 1..second_put {
            let idx = wclass.start + op;
            let (kind, _, _, _) = self.prog.raw_op(idx);
            if !matches!(kind, OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny) {
                continue;
            }
            self.wait_ids(idx, &mut wids);
            for &ack in &wids {
                let Some(srcs) = wpiece.notify.get(&ack) else { continue };
                if srcs.iter().any(|s| s.class == reader_class && s.op as usize > consume_at) {
                    return true;
                }
            }
        }
        false
    }

    /// Analysis 1: timeless optimistic execution over the piece quotient,
    /// handing a stall to the exact per-rank run.
    fn abstract_execution(&mut self) {
        let n_pieces = self.pieces.len();
        let mut state: Vec<PieceState> = (0..n_pieces)
            .map(|_| PieceState {
                cursor: 0,
                stuck: Stuck::Ready,
                consumed: HashMap::new(),
                msgs_consumed: HashMap::new(),
            })
            .collect();
        // Per class: minimum cursor over its pieces, plus the sorted wake
        // list (producing op → dependent piece) with a monotone pointer.
        let n_classes = self.classes.len();
        let mut class_min: Vec<usize> = vec![0; n_classes];
        let mut wake: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_classes];
        for (pi, piece) in self.pieces.iter().enumerate() {
            for srcs in piece.notify.values().chain(piece.msgs.values()) {
                for s in srcs {
                    wake[s.class as usize].push((s.op, pi as u32));
                }
            }
        }
        for w in &mut wake {
            w.sort_unstable();
            w.dedup();
        }
        let mut wake_ptr: Vec<usize> = vec![0; n_classes];

        let mut queue: VecDeque<usize> = (0..n_pieces).collect();
        let mut in_queue: Vec<bool> = vec![true; n_pieces];
        let mut at_barrier: usize = 0;
        let mut wids: Vec<NotifyId> = Vec::new();

        while let Some(pi) = queue.pop_front() {
            in_queue[pi] = false;
            let class_idx = self.pieces[pi].class as usize;
            let (start, len) = (self.classes[class_idx].start, self.classes[class_idx].len);
            let before = state[pi].cursor;
            if state[pi].stuck == Stuck::Barrier {
                continue; // Only the barrier release path unparks these.
            }
            loop {
                let cursor = state[pi].cursor;
                if cursor >= len {
                    state[pi].stuck = Stuck::Done;
                    break;
                }
                let idx = start + cursor;
                let (kind, a, b, _) = self.prog.raw_op(idx);
                match kind {
                    OpKind::Compute
                    | OpKind::Reduce
                    | OpKind::Copy
                    | OpKind::PutNotify
                    | OpKind::Notify
                    | OpKind::Send
                    | OpKind::Isend
                    | OpKind::WaitAllSends => {
                        state[pi].cursor += 1;
                    }
                    OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny => {
                        let count = self.wait_ids(idx, &mut wids);
                        let satisfied = if kind == OpKind::WaitAny && count < wids.len() {
                            self.try_consume_any(&self.pieces[pi], &mut state[pi], &wids, count, &class_min)
                        } else {
                            self.try_consume_all(&self.pieces[pi], &mut state[pi], &wids, &class_min)
                        };
                        if satisfied {
                            state[pi].cursor += 1;
                        } else {
                            state[pi].stuck = Stuck::Blocked;
                            break;
                        }
                    }
                    OpKind::Recv => {
                        let piece = &self.pieces[pi];
                        let src = decode_target(piece.rep(), a, self.classes[class_idx].mode, self.n);
                        let key = (src, b);
                        let avail = piece.msgs.get(&key).map_or(0, |srcs| {
                            srcs.iter()
                                .filter(|s| class_min[s.class as usize] > s.op as usize)
                                .map(|s| s.count)
                                .sum::<u64>()
                        });
                        let used = state[pi].msgs_consumed.get(&key).copied().unwrap_or(0);
                        if avail > used {
                            *state[pi].msgs_consumed.entry(key).or_insert(0) += 1;
                            state[pi].cursor += 1;
                        } else {
                            state[pi].stuck = Stuck::Blocked;
                            break;
                        }
                    }
                    OpKind::Barrier => {
                        state[pi].stuck = Stuck::Barrier;
                        at_barrier += 1;
                        if at_barrier == n_pieces {
                            // Every rank is parked at a barrier: release.
                            at_barrier = 0;
                            for (qi, s) in state.iter_mut().enumerate() {
                                debug_assert_eq!(s.stuck, Stuck::Barrier);
                                s.cursor += 1;
                                s.stuck = Stuck::Ready;
                                if !in_queue[qi] {
                                    in_queue[qi] = true;
                                    queue.push_back(qi);
                                }
                            }
                        }
                        break;
                    }
                }
            }
            // Did this class's minimum cursor advance?  Wake the pieces whose
            // supply edges it newly satisfies.
            if state[pi].cursor == before {
                continue;
            }
            let new_min =
                self.classes[class_idx].piece_idx.iter().map(|&q| state[q].cursor).min().unwrap_or(usize::MAX);
            if new_min <= class_min[class_idx] {
                continue;
            }
            class_min[class_idx] = new_min;
            let w = &wake[class_idx];
            let ptr = &mut wake_ptr[class_idx];
            while *ptr < w.len() && (w[*ptr].0 as usize) < new_min {
                let dep = w[*ptr].1 as usize;
                *ptr += 1;
                if !in_queue[dep] && !matches!(state[dep].stuck, Stuck::Done | Stuck::Barrier) {
                    in_queue[dep] = true;
                    queue.push_back(dep);
                }
            }
        }

        // A stalled quotient decides nothing: only the exact run does.
        if state.iter().any(|s| s.stuck != Stuck::Done) {
            self.report_exact_stall();
        }
    }

    /// Run the exact per-rank execution and report what it leaves blocked,
    /// one [`BlockedWait`] per (piece, op index).
    fn report_exact_stall(&mut self) {
        // Waits already reported as starvation by the budget walk are not
        // *additionally* a deadlock: the deficit alone explains the stall.
        let starved: HashSet<(RankId, usize)> = self
            .errors
            .iter()
            .filter_map(|e| match e {
                AnalysisError::Starvation { rank, op_index, .. } => Some((*rank, *op_index)),
                _ => None,
            })
            .collect();
        let mut certain = true;
        let mut blocked: BTreeMap<(usize, usize), BlockedWait> = BTreeMap::new();
        for (rank, cursor) in self.exact_run().into_iter().enumerate() {
            if cursor >= self.prog.raw_entry(rank).1 {
                continue;
            }
            let pi = self.piece_starts.partition_point(|&s| s <= rank) - 1;
            let piece = &self.pieces[pi];
            certain &= !self.partial_any[piece.class as usize];
            if starved.contains(&(piece.rep(), cursor)) {
                continue;
            }
            blocked
                .entry((pi, cursor))
                .or_insert_with(|| BlockedWait {
                    rank,
                    op_index: cursor,
                    what: format!("{:?}", self.prog.rank_ops(rank).op(cursor)),
                    ranks_affected: 0,
                })
                .ranks_affected += 1;
        }
        if !blocked.is_empty() {
            self.errors.push(AnalysisError::Deadlock { blocked: blocked.into_values().collect(), certain });
        }
    }

    /// The exact fallback: a timeless execution with one cursor per rank
    /// (see the module docs).  Returns every rank's final cursor; a cursor
    /// short of the rank's op count marks a rank left blocked.
    fn exact_run(&self) -> Vec<usize> {
        let n = self.n;
        let mut cursor = vec![0usize; n];
        let mut parked = vec![false; n];
        let mut at_barrier = 0usize;
        // Unconsumed arrivals per (receiver, id) and per (receiver, source, tag).
        let mut notes: HashMap<(RankId, NotifyId), u64> = HashMap::new();
        let mut msgs: HashMap<(RankId, RankId, u32), u64> = HashMap::new();
        let mut queue: VecDeque<RankId> = (0..n).collect();
        let mut in_queue = vec![true; n];
        let mut wids: Vec<NotifyId> = Vec::new();
        while let Some(r) = queue.pop_front() {
            in_queue[r] = false;
            if parked[r] {
                continue; // Only the barrier release unparks a rank.
            }
            let (start, len, mode) = self.prog.raw_entry(r);
            while cursor[r] < len {
                let idx = start + cursor[r];
                let (kind, a, b, _) = self.prog.raw_op(idx);
                let receiver = match kind {
                    OpKind::Compute | OpKind::Reduce | OpKind::Copy | OpKind::WaitAllSends => None,
                    OpKind::PutNotify | OpKind::Notify => {
                        let dst = decode_target(r, a, mode, n);
                        *notes.entry((dst, b)).or_insert(0) += 1;
                        Some(dst)
                    }
                    OpKind::Send | OpKind::Isend => {
                        let dst = decode_target(r, a, mode, n);
                        *msgs.entry((dst, r, b)).or_insert(0) += 1;
                        Some(dst)
                    }
                    OpKind::WaitOne | OpKind::WaitMany | OpKind::WaitAny => {
                        // The engine's rule: consume one arrival from each of
                        // the first `count` listed ids that have one.
                        let count = self.wait_ids(idx, &mut wids);
                        let take: Vec<NotifyId> = wids
                            .iter()
                            .copied()
                            .filter(|&id| notes.get(&(r, id)).is_some_and(|&c| c > 0))
                            .take(count)
                            .collect();
                        if take.len() < count {
                            break;
                        }
                        for id in take {
                            *notes.entry((r, id)).or_insert(0) -= 1;
                        }
                        None
                    }
                    OpKind::Recv => {
                        let src = decode_target(r, a, mode, n);
                        match msgs.get_mut(&(r, src, b)) {
                            Some(c) if *c > 0 => *c -= 1,
                            _ => break,
                        }
                        None
                    }
                    OpKind::Barrier => {
                        parked[r] = true;
                        at_barrier += 1;
                        if at_barrier == n {
                            // Every rank is parked at a barrier: release.
                            at_barrier = 0;
                            for q in 0..n {
                                parked[q] = false;
                                cursor[q] += 1;
                                if !in_queue[q] {
                                    in_queue[q] = true;
                                    queue.push_back(q);
                                }
                            }
                        }
                        break;
                    }
                };
                cursor[r] += 1;
                if let Some(dst) = receiver.filter(|&d| !in_queue[d]) {
                    in_queue[dst] = true;
                    queue.push_back(dst);
                }
            }
        }
        cursor
    }

    /// All-of consumption (`WaitNotify`, and `WaitNotifyAny` demanding its
    /// full set): satisfiable iff every id has an unconsumed arrival.
    fn try_consume_all(&self, piece: &Piece, state: &mut PieceState, ids: &[NotifyId], class_min: &[usize]) -> bool {
        let ok = ids.iter().all(|&id| self.avail(piece, state, id, class_min) >= 1);
        if ok {
            for &id in ids {
                *state.consumed.entry(id).or_insert(0) += 1;
            }
        }
        ok
    }

    /// Partial any-wait: needs `count` distinct available ids; consumes one
    /// arrival from each of the first `count` available ids in listed order
    /// — the engine's exact semantics.
    fn try_consume_any(
        &self,
        piece: &Piece,
        state: &mut PieceState,
        ids: &[NotifyId],
        count: usize,
        class_min: &[usize],
    ) -> bool {
        let available: Vec<NotifyId> =
            ids.iter().copied().filter(|&id| self.avail(piece, state, id, class_min) >= 1).collect();
        if available.len() < count {
            return false;
        }
        for &id in available.iter().take(count) {
            *state.consumed.entry(id).or_insert(0) += 1;
        }
        true
    }

    /// Unconsumed arrivals of `id` at `piece`, counting only supply whose
    /// producing op every rank of the producing class has passed.
    fn avail(&self, piece: &Piece, state: &PieceState, id: NotifyId, class_min: &[usize]) -> u64 {
        let produced: u64 = piece.notify.get(&id).map_or(0, |srcs| {
            srcs.iter().filter(|s| class_min[s.class as usize] > s.op as usize).map(|s| s.count).sum()
        });
        produced.saturating_sub(state.consumed.get(&id).copied().unwrap_or(0))
    }
}

/// Merge a supply edge into a sorted-by-(class, op) edge list, coalescing
/// duplicates (the same producing op reaching the same piece through two
/// wrapped intervals).
fn push_supply(srcs: &mut Vec<Supply>, s: Supply) {
    if let Some(last) = srcs.last_mut() {
        if last.class == s.class && last.op == s.op && last.code == s.code {
            last.count += s.count;
            return;
        }
    }
    srcs.push(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn report(p: &Program) -> AnalysisReport {
        analyze(p).expect("test programs must validate")
    }

    #[test]
    fn ping_pong_is_clean() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 1);
        b.wait_notify(1, &[1]);
        b.put_notify(1, 0, 64, 2);
        b.wait_notify(0, &[2]);
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
        assert!(r.is_deadlock_free());
    }

    #[test]
    fn uniform_ring_shift_is_two_pieces_and_clean() {
        // Every rank puts one chunk to its successor and waits for its
        // predecessor's: one shared delta segment, split into at most a
        // couple of supply-uniform pieces.
        let p = 64;
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            b.put_notify(r, (r + 1) % p, 1024, 0);
            b.wait_notify(r, &[0]);
        }
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
        // Rank 0's targets also satisfy the xor coding, so it may land in
        // its own class; everything else shares one delta segment.
        assert!(r.classes <= 2, "expected O(1) classes, got {}", r.classes);
        assert!(r.pieces <= 3, "expected O(1) pieces, got {}", r.pieces);
        assert_eq!(r.num_ranks, p);
    }

    #[test]
    fn dropped_notify_is_starvation() {
        let mut b = ProgramBuilder::new(2);
        b.wait_notify(0, &[7]);
        b.compute(1, 1e-6);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(
                e,
                AnalysisError::Starvation { rank: 0, op_index: 0, id: 7, required: 1, produced: 0, .. }
            )),
            "{:?}",
            r.errors
        );
        assert!(!r.is_deadlock_free());
    }

    #[test]
    fn circular_waits_are_a_certain_deadlock() {
        // Each rank waits for the other's notify before issuing its own.
        let mut b = ProgramBuilder::new(2);
        b.wait_notify(0, &[0]);
        b.notify(0, 1, 1);
        b.wait_notify(1, &[1]);
        b.notify(1, 0, 0);
        let r = report(&b.build());
        let dead = r
            .errors
            .iter()
            .find_map(|e| match e {
                AnalysisError::Deadlock { blocked, certain } => Some((blocked.clone(), *certain)),
                _ => None,
            })
            .expect("deadlock must be reported");
        assert!(dead.1, "no partial any-waits: deadlock must be certain");
        assert_eq!(dead.0.len(), 2);
        assert!(!r.is_deadlock_free());
    }

    #[test]
    fn overproduced_notify_is_a_leak() {
        let mut b = ProgramBuilder::new(2);
        b.notify(0, 1, 3);
        b.notify(0, 1, 3);
        b.wait_notify(1, &[3]);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(
                e,
                AnalysisError::NotificationLeak { rank: 1, id: 3, produced: 2, consumable: 1, .. }
            )),
            "{:?}",
            r.errors
        );
        // A leak alone must not be misread as a hang.
        assert!(r.is_deadlock_free());
    }

    #[test]
    fn two_writers_one_slot_is_a_race() {
        let mut b = ProgramBuilder::new(3);
        b.put_notify(0, 2, 64, 5);
        b.put_notify(1, 2, 64, 5);
        b.wait_notify(2, &[5]);
        b.wait_notify(2, &[5]);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(e, AnalysisError::MultiWriterRace { rank: 2, id: 5, .. })),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn partial_any_wait_can_drain_a_later_wait() {
        let mut b = ProgramBuilder::new(2);
        b.notify(0, 1, 1);
        b.notify(0, 1, 2);
        b.wait_notify_any(1, &[1, 2], 1);
        b.wait_notify(1, &[2]);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(e, AnalysisError::ConsumptionRace { rank: 1, op_index: 1, id: 2, .. })),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn never_awaited_payload_is_flagged() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 9);
        b.compute(1, 1e-6);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(e, AnalysisError::UnsyncedPayloadRead { rank: 1, id: 9, writer: 0, .. })),
            "{:?}",
            r.errors
        );
    }

    #[test]
    fn slot_reuse_without_ack_is_a_race_and_with_ack_is_clean() {
        // Unsynchronized: the second put can overwrite the unread first.
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 0);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        b.wait_notify(1, &[0]);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(
                e,
                AnalysisError::UnsyncedSlotReuse { writer: 0, rank: 1, id: 0, first_put: 0, second_put: 1, .. }
            )),
            "{:?}",
            r.errors
        );

        // Acknowledged: the reader confirms consumption before the reuse.
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(0, &[8]);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        b.notify(1, 0, 8);
        b.wait_notify(1, &[0]);
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
    }

    #[test]
    fn unmatched_barrier_is_a_deadlock() {
        let mut b = ProgramBuilder::new(2);
        b.barrier(0);
        b.compute(1, 1e-6);
        let r = report(&b.build());
        assert!(r.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { certain: true, .. })), "{:?}", r.errors);

        let mut b = ProgramBuilder::new(2);
        b.barrier_all();
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        b.barrier_all();
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
    }

    #[test]
    fn two_sided_order_reversal_is_a_deadlock() {
        // Both ranks receive before sending; channel counts match, so
        // validation passes, but no message can ever be produced.
        let mut b = ProgramBuilder::new(2);
        b.recv(0, 1, 64, 0);
        b.send(0, 1, 64, 0);
        b.recv(1, 0, 64, 0);
        b.send(1, 0, 64, 0);
        let r = report(&b.build());
        assert!(r.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { .. })), "{:?}", r.errors);

        // The same channels in a workable order are clean.
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, 64, 0);
        b.recv(0, 1, 64, 0);
        b.recv(1, 0, 64, 0);
        b.send(1, 0, 64, 0);
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
    }

    #[test]
    fn hypercube_exchange_is_one_class_and_clean() {
        // Classic dimension-exchange: every rank puts to rank^2^k and waits
        // on the partner's put, per dimension.  One xor class, one piece.
        let p = 32;
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            for k in 0..5u32 {
                b.put_notify(r, r ^ (1 << k), 256, k);
                b.wait_notify(r, &[k]);
            }
        }
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
        assert_eq!(r.classes, 1, "xor coding must dedup all ranks into one class");
        assert_eq!(r.pieces, 1);
    }

    #[test]
    fn report_scales_with_segments_not_ranks() {
        // The same shifted-ring program at two very different rank counts
        // must produce identical class/piece structure.
        for p in [128usize, 8192] {
            let mut b = ProgramBuilder::new(p);
            for r in 0..p {
                b.put_notify(r, (r + 1) % p, 1024, 0);
                b.wait_notify(r, &[0]);
                b.put_notify(r, (r + 1) % p, 1024, 1);
                b.wait_notify(r, &[1]);
            }
            let r = report(&b.build());
            assert!(r.is_clean(), "p={p}: {:?}", r.errors);
            assert!(r.classes <= 2, "p={p}: {}", r.classes);
            assert!(r.pieces <= 3, "p={p}: {}", r.pieces);
        }
    }

    /// Rank 0 puts, rank r waits for r−1 and forwards, the last rank only
    /// waits: the middle ranks intern into one shared segment and drain
    /// rank by rank.  The lockstep quotient alone stalls here (no piece
    /// can take the first step as a unit); the exact per-rank run must
    /// find that the chain completes, at any rank count.
    #[test]
    fn shared_segment_pipelined_chain_is_clean() {
        for p in [3usize, 8, 64, 1 << 14] {
            let mut b = ProgramBuilder::new(p);
            b.put_notify(0, 1, 64, 0);
            for r in 1..p - 1 {
                b.wait_notify(r, &[0]);
                b.put_notify(r, (r + 1) % p, 64, 0);
            }
            b.wait_notify(p - 1, &[0]);
            let r = report(&b.build());
            assert!(r.is_clean(), "p={p}: {:?}", r.errors);
            assert!(r.is_deadlock_free());
            assert!(r.classes <= 4, "p={p}: the middle ranks must share a segment, got {} classes", r.classes);
        }
    }

    /// The same chain flowing downward (rank p−1 puts, rank r waits for
    /// r+1 and forwards): the exact run is direction-blind.
    #[test]
    fn reversed_pipelined_chain_is_clean() {
        for p in [3usize, 8, 64] {
            let mut b = ProgramBuilder::new(p);
            b.put_notify(p - 1, p - 2, 64, 0);
            for r in (1..p - 1).rev() {
                b.wait_notify(r, &[0]);
                b.put_notify(r, r - 1, 64, 0);
            }
            b.wait_notify(0, &[0]);
            let r = report(&b.build());
            assert!(r.is_clean(), "p={p}: {:?}", r.errors);
            assert!(r.is_deadlock_free());
        }
    }

    /// A multi-stage pipeline: two forward chains back to back through the
    /// same shared segment, each stage draining behind the previous one.
    #[test]
    fn two_stage_pipelined_chain_is_clean() {
        let p = 16;
        let mut b = ProgramBuilder::new(p);
        b.put_notify(0, 1, 64, 0);
        b.put_notify(0, 1, 64, 1);
        for r in 1..p - 1 {
            b.wait_notify(r, &[0]);
            b.put_notify(r, r + 1, 64, 0);
            b.wait_notify(r, &[1]);
            b.put_notify(r, r + 1, 64, 1);
        }
        b.wait_notify(p - 1, &[0]);
        b.wait_notify(p - 1, &[1]);
        let r = report(&b.build());
        assert!(r.is_clean(), "{:?}", r.errors);
    }

    /// Closing the chain into a full ring where *every* rank waits before
    /// putting removes the base case: a genuine cycle.  The exact run
    /// stalls with every rank at its wait, and with no partial any-wait
    /// in play the deadlock is `certain`.
    #[test]
    fn wait_first_full_ring_is_a_certain_deadlock() {
        let p = 8;
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            b.wait_notify(r, &[0]);
            b.put_notify(r, (r + 1) % p, 64, 0);
        }
        let r = report(&b.build());
        assert!(r.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { certain: true, .. })), "{:?}", r.errors);
        assert!(!r.is_deadlock_free());
    }

    /// A partial any-wait in a piece that *completes* must not downgrade an
    /// unrelated deterministic deadlock to `certain: false`.
    #[test]
    fn partial_any_in_a_completed_piece_keeps_unrelated_deadlocks_certain() {
        let mut b = ProgramBuilder::new(4);
        // Ranks 0/1: deterministic circular wait.
        b.wait_notify(0, &[0]);
        b.notify(0, 1, 1);
        b.wait_notify(1, &[1]);
        b.notify(1, 0, 0);
        // Ranks 2/3: a partial any-wait that runs to completion.
        b.notify(2, 3, 5);
        b.notify(2, 3, 6);
        b.wait_notify_any(3, &[5, 6], 1);
        b.wait_notify(3, &[6]);
        let r = report(&b.build());
        let certain = r
            .errors
            .iter()
            .find_map(|e| match e {
                AnalysisError::Deadlock { certain, .. } => Some(*certain),
                _ => None,
            })
            .expect("ranks 0/1 deadlock");
        assert!(certain, "the any-wait's piece completed; the 0/1 cycle is order-independent: {:?}", r.errors);
    }

    /// The partial-any consumption race must name an id that is actually
    /// endangered (available under some order, drained in the worst case),
    /// not merely the first id of the wait's list.
    #[test]
    fn consumption_race_names_an_endangered_id() {
        let mut b = ProgramBuilder::new(2);
        b.notify(0, 1, 1);
        // Id 2 is listed first but never produced; only id 1 can be
        // drained from under the second any-wait.
        b.wait_notify_any(1, &[2, 1], 1);
        b.wait_notify_any(1, &[2, 1], 1);
        let r = report(&b.build());
        assert!(
            r.errors.iter().any(|e| matches!(e, AnalysisError::ConsumptionRace { rank: 1, op_index: 1, id: 1, .. })),
            "{:?}",
            r.errors
        );
    }

    /// The xor branch of `receiver_intervals` must cover exactly the
    /// per-rank image for arbitrary sub-intervals — in O(log p) aligned
    /// blocks, not O(p) singletons.
    #[test]
    fn xor_receiver_intervals_match_per_rank_enumeration() {
        let n = 64;
        let mut out = Vec::new();
        for &(lo, hi) in &[(0usize, 64usize), (3, 8), (5, 37), (17, 18), (0, 48), (31, 63)] {
            for code in 1..n as u32 {
                out.clear();
                receiver_intervals(lo, hi, code, TargetMode::Xor, n, &mut out);
                assert!(
                    out.len() <= 2 * usize::BITS as usize,
                    "[{lo},{hi}) code {code}: {} intervals is not O(log p)",
                    out.len()
                );
                let mut got: Vec<usize> = out.iter().flat_map(|&(a, b)| a..b).collect();
                got.sort_unstable();
                let mut want: Vec<usize> = (lo..hi).map(|r| r ^ code as usize).collect();
                want.sort_unstable();
                assert_eq!(got, want, "[{lo},{hi}) code {code}");
            }
        }
    }
}
