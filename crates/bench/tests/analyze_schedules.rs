//! Mutation corpus and differential tests for the static schedule analyzer.
//!
//! Three layers of evidence that `ec_netsim::analyze` tells good schedules
//! from bad ones:
//!
//! 1. **Mutation corpus** — take known-good library schedules, break them
//!    mechanically (drop a notify, swap two waits, shrink a composite wait,
//!    overlap two put targets) and assert the analyzer reports the *right*
//!    error class for each mutant while the unmutated base stays clean.
//! 2. **Differential property** — for random one-sided programs, the
//!    analyzer certifies deadlock-freedom if and only if the engine actually
//!    completes the run.
//! 3. **Scale** — the compiled `p = 2^20` windowed ring analyzes clean
//!    through its two interned segments, nowhere near the fig17 8 GiB
//!    budget.

use ec_baseline::MpiAllreduceVariant;
use ec_bench::million::{peak_rss_bytes, WindowedRingSource};
use ec_bench::ssp_scale::{ssp_scale_program, SspScaleConfig};
use ec_collectives::schedule::{
    alltoall_direct_schedule, bcast_bst_schedule, reduce_bst_schedule, ring_allreduce_schedule,
};
use ec_netsim::{
    analyze, analyze_compiled, AnalysisError, ClusterSpec, CompiledProgram, CostModel, Engine, Op, Program, SimError,
    SplitMix64,
};
use proptest::prelude::*;

/// The analyzer must accept the unmutated base before a mutant of it means
/// anything.
fn assert_clean_base(program: &Program, what: &str) {
    let report = analyze(program).expect("library schedules pass validation");
    assert!(report.is_clean(), "{what} should analyze clean, got {:?}", report.errors);
}

// ---------------------------------------------------------------------------
// Mutation corpus: one mechanical defect per known defect class.
// ---------------------------------------------------------------------------

/// Dropping one `PutNotify` from a ring starves the right neighbor's wait.
#[test]
fn dropped_notify_is_reported_as_starvation() {
    let mut program = ring_allreduce_schedule(8, 4096);
    assert_clean_base(&program, "ring_allreduce(8)");
    let ops = &mut program.ranks[2].ops;
    let put = ops.iter().position(|op| matches!(op, Op::PutNotify { .. })).expect("the ring is made of puts");
    ops.remove(put);
    let report = analyze(&program).unwrap();
    assert!(
        report.errors.iter().any(|e| matches!(e, AnalysisError::Starvation { rank: 3, .. })),
        "rank 3 waits forever for rank 2's dropped chunk, got {:?}",
        report.errors
    );
}

/// Swapping an interior bcast rank's data wait with its ack wait makes it
/// demand acknowledgements from children it has not forwarded to yet — a
/// certain cross-rank cycle.
#[test]
fn swapped_waits_are_reported_as_a_deadlock() {
    let mut program = bcast_bst_schedule(8, 4096, 1.0);
    assert_clean_base(&program, "bcast_bst(8)");
    let victim = program
        .ranks
        .iter()
        .position(|r| r.ops.iter().filter(|op| matches!(op, Op::WaitNotify { .. })).count() >= 2)
        .expect("an interior rank waits for both its data and its children's acks");
    let waits: Vec<usize> = program.ranks[victim]
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::WaitNotify { .. }))
        .map(|(i, _)| i)
        .collect();
    program.ranks[victim].ops.swap(waits[0], *waits.last().unwrap());
    let report = analyze(&program).unwrap();
    assert!(
        report.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { certain: true, .. })),
        "waiting for acks before forwarding the data is a certain cycle, got {:?}",
        report.errors
    );
}

/// Shrinking the AlltoAll's composite wait leaves one peer's landed block
/// never awaited: its payload is read unsynchronized.
#[test]
fn shrunken_wait_is_reported_as_an_unsynced_payload_read() {
    let mut program = alltoall_direct_schedule(4, 512);
    assert_clean_base(&program, "alltoall_direct(4)");
    let ops = &mut program.ranks[0].ops;
    let dropped = ops
        .iter_mut()
        .find_map(|op| match op {
            Op::WaitNotify { ids } if ids.len() > 1 => {
                let (&last, kept) = ids.split_last()?;
                *ids = kept.into();
                Some(last)
            }
            _ => None,
        })
        .expect("rank 0 waits for all three peers at once");
    let report = analyze(&program).unwrap();
    assert!(
        report
            .errors
            .iter()
            .any(|e| matches!(e, AnalysisError::UnsyncedPayloadRead { rank: 0, id, .. } if *id == dropped)),
        "peer {dropped}'s block lands but is never awaited, got {:?}",
        report.errors
    );
}

/// Dropping a leaf's wait for the parent's bare "slot free" notification
/// leaks that notification (there is no payload behind it).
#[test]
fn dropped_handshake_wait_is_reported_as_a_leak() {
    let mut program = reduce_bst_schedule(8, 4096, 1.0);
    assert_clean_base(&program, "reduce_bst(8)");
    let victim = program
        .ranks
        .iter()
        .position(|r| {
            r.ops.iter().any(|op| matches!(op, Op::WaitNotify { ids } if ids == &[0]))
                && !r.ops.iter().any(|op| matches!(op, Op::Notify { .. }))
        })
        .expect("a leaf waits for the ready handshake and has no children of its own");
    let ops = &mut program.ranks[victim].ops;
    let wait = ops.iter().position(|op| matches!(op, Op::WaitNotify { ids } if ids == &[0])).unwrap();
    ops.remove(wait);
    let report = analyze(&program).unwrap();
    assert!(
        report
            .errors
            .iter()
            .any(|e| matches!(e, AnalysisError::NotificationLeak { rank, id: 0, .. } if *rank == victim)),
        "the parent's ready notification to rank {victim} is never consumed, got {:?}",
        report.errors
    );
}

/// Redirecting one writer's notification onto another writer's slot makes
/// two ranks race on the same (dst, id) landing slot.
#[test]
fn overlapping_put_targets_are_reported_as_a_multi_writer_race() {
    let mut program = alltoall_direct_schedule(4, 512);
    let stolen = program.ranks[2]
        .ops
        .iter()
        .find_map(|op| match op {
            Op::PutNotify { dst: 0, notify, .. } => Some(*notify),
            _ => None,
        })
        .expect("rank 2 writes a block to rank 0");
    let mutated = program.ranks[1]
        .ops
        .iter_mut()
        .find_map(|op| match op {
            Op::PutNotify { dst: 0, notify, .. } => {
                *notify = stolen;
                Some(())
            }
            _ => None,
        })
        .is_some();
    assert!(mutated, "rank 1 writes a block to rank 0");
    let report = analyze(&program).unwrap();
    assert!(
        report.errors.iter().any(|e| matches!(e, AnalysisError::MultiWriterRace { rank: 0, id, .. } if *id == stolen)),
        "ranks 1 and 2 both land on slot (0, {stolen}), got {:?}",
        report.errors
    );
}

/// The analyzer rejects a schedule the engine would deadlock on and
/// certifies one the engine runs.
#[test]
fn analyzer_rejects_broken_and_accepts_clean_schedules() {
    let engine = Engine::new(ClusterSpec::homogeneous(8, 1), CostModel::test_model());
    let clean = ring_allreduce_schedule(8, 4096);
    assert!(analyze(&clean).unwrap().is_clean());
    engine.run(&clean).unwrap();

    let mut broken = ring_allreduce_schedule(8, 4096);
    let put = broken.ranks[2].ops.iter().position(|op| matches!(op, Op::PutNotify { .. })).unwrap();
    broken.ranks[2].ops.remove(put);
    let errors = analyze(&broken).unwrap().errors;
    assert!(errors.iter().any(|e| matches!(e, AnalysisError::Starvation { .. })), "got {errors:?}");
    assert!(matches!(engine.run(&broken), Err(SimError::Deadlock { .. })));
}

// ---------------------------------------------------------------------------
// Pipelined chains through one interned segment.
//
// The random one-sided differential below never interns two ranks into one
// class (each rank draws its own stream), so it cannot exercise the lockstep
// quotient's blind spot: a piece whose supply comes from earlier ranks of
// its *own* segment.  These chains and the replicated random streams after
// them do — the shape that stalls the quotient and hands the verdict to the
// analyzer's exact per-rank run.
// ---------------------------------------------------------------------------

/// A pipelined token chain: the seeding edge rank starts `stages` tokens,
/// every middle rank waits for its upstream neighbor and forwards, and the
/// far edge rank only waits.  All middle ranks share one interned segment.
/// With `seeded` false the chain has no base case: every wait starves.
fn chain_program(p: usize, stages: usize, reversed: bool, seeded: bool) -> Program {
    let mut program = Program::empty(p);
    let (first, last) = if reversed { (p - 1, 0) } else { (0, p - 1) };
    let next = |r: usize| if reversed { r - 1 } else { r + 1 };
    for s in 0..stages as u32 {
        if seeded {
            program.ranks[first].ops.push(Op::PutNotify { dst: next(first), bytes: 64, notify: s });
        } else {
            program.ranks[first].ops.push(Op::WaitNotify { ids: vec![s].into() });
        }
    }
    let mut r = next(first);
    while r != last {
        for s in 0..stages as u32 {
            program.ranks[r].ops.push(Op::WaitNotify { ids: vec![s].into() });
            program.ranks[r].ops.push(Op::PutNotify { dst: next(r), bytes: 64, notify: s });
        }
        r = next(r);
    }
    for s in 0..stages as u32 {
        program.ranks[last].ops.push(Op::WaitNotify { ids: vec![s].into() });
    }
    program
}

/// The seeded chain is clean and runs under the engine; closing it into a
/// wait-first ring removes the base case and must stay a *certain* deadlock.
#[test]
fn pipelined_chain_is_certified_and_runs() {
    for p in [3usize, 8, 64] {
        for reversed in [false, true] {
            let chain = chain_program(p, 2, reversed, true);
            let report = analyze(&chain).unwrap();
            assert!(report.is_clean(), "p={p} reversed={reversed}: {:?}", report.errors);
            let engine = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
            engine.run(&chain).expect("the analyzer certified the chain");
        }
    }

    // Every rank waits before putting: a genuine cycle, order-independent.
    let p = 8;
    let mut ring = Program::empty(p);
    for r in 0..p {
        ring.ranks[r].ops.push(Op::WaitNotify { ids: vec![0].into() });
        ring.ranks[r].ops.push(Op::PutNotify { dst: (r + 1) % p, bytes: 64, notify: 0 });
    }
    let report = analyze(&ring).unwrap();
    assert!(
        report.errors.iter().any(|e| matches!(e, AnalysisError::Deadlock { certain: true, .. })),
        "got {:?}",
        report.errors
    );
}

/// A random rank-relative stream: one to five puts, notifies and waits over
/// ids `0..3`, with each target stored as a delta from the issuing rank
/// (mostly ±1, so neighbors feed each other) and each wait all-of.
fn random_relative_stream(rng: &mut SplitMix64, p: usize) -> Vec<Op> {
    (0..1 + rng.next_below(5))
        .map(|_| {
            let delta = match rng.next_below(4) {
                0 => 1 + rng.next_below(p - 1),
                1 => p - 1,
                _ => 1,
            };
            let id = rng.next_below(3) as u32;
            match rng.next_below(3) {
                0 => Op::PutNotify { dst: delta, bytes: 64, notify: id },
                1 => Op::Notify { dst: delta, notify: id },
                _ if rng.next_below(3) == 0 => Op::WaitNotify { ids: vec![id, (id + 1) % 3].into() },
                _ => Op::WaitNotify { ids: vec![id].into() },
            }
        })
        .collect()
}

/// One stream replicated on every middle rank (so the middle ranks intern
/// into one class and supply each other), with distinct random streams on
/// the two edge ranks.
fn random_interned_program(seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed);
    let p = 4 + rng.next_below(6); // 4..=9 ranks
    let middle = random_relative_stream(&mut rng, p);
    let mut program = Program::empty(p);
    for rank in 0..p {
        let stream = if rank == 0 || rank == p - 1 { random_relative_stream(&mut rng, p) } else { middle.clone() };
        program.ranks[rank].ops = stream
            .into_iter()
            .map(|op| match op {
                Op::PutNotify { dst, bytes, notify } => Op::PutNotify { dst: (rank + dst) % p, bytes, notify },
                Op::Notify { dst, notify } => Op::Notify { dst: (rank + dst) % p, notify },
                other => other,
            })
            .collect();
    }
    program
}

/// Differential over replicated random streams: deadlock-free exactly when
/// the engine completes, and every rank a `certain` deadlock names is
/// blocked in the engine at the same op.
#[test]
fn analyzer_and_engine_agree_on_interned_random_streams() {
    let (mut completed, mut certain_deadlocks) = (0, 0);
    for seed in 0..1000u64 {
        let program = random_interned_program(seed);
        let report = analyze(&program).unwrap();
        let engine = Engine::new(ClusterSpec::homogeneous(program.num_ranks(), 1), CostModel::test_model());
        match engine.run(&program) {
            Ok(_) => {
                assert!(report.is_deadlock_free(), "seed {seed}: engine completed but got {:?}", report.errors);
                completed += 1;
            }
            Err(SimError::Deadlock { blocked }) => {
                assert!(!report.is_deadlock_free(), "seed {seed}: engine deadlocked but the analyzer certified it");
                for e in &report.errors {
                    let AnalysisError::Deadlock { blocked: named, certain: true } = e else { continue };
                    certain_deadlocks += 1;
                    for b in named {
                        assert!(
                            blocked.iter().any(|&(r, pc, _)| r == b.rank && pc == b.op_index),
                            "seed {seed}: rank {} at op {} is not blocked there in the engine: {blocked:?}",
                            b.rank,
                            b.op_index
                        );
                    }
                }
            }
            Err(other) => panic!("seed {seed}: unexpected engine error: {other}"),
        }
    }
    // Both verdicts must be common, or the generator has degenerated.
    assert!(
        completed >= 100 && certain_deadlocks >= 100,
        "{completed} completed, {certain_deadlocks} certain deadlocks"
    );
}

// ---------------------------------------------------------------------------
// Clean-variant properties and the analyzer/engine differential.
// ---------------------------------------------------------------------------

/// A random one-sided program: every rank issues a handful of puts and
/// single-id waits over a small notification id space.  Some draws starve a
/// wait or form a cross-rank cycle; most complete.
fn random_one_sided_program(seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed);
    let p = 2 + rng.next_below(4); // 2..=5 ranks
    let mut program = Program::empty(p);
    for rank in 0..p {
        for _ in 0..rng.next_below(7) {
            let id = rng.next_below(3) as u32;
            let op = match rng.next_below(3) {
                0 => {
                    let dst = (rank + 1 + rng.next_below(p - 1)) % p;
                    Op::PutNotify { dst, bytes: 1 + rng.next_below(4096) as u64, notify: id }
                }
                1 => {
                    let dst = (rank + 1 + rng.next_below(p - 1)) % p;
                    Op::Notify { dst, notify: id }
                }
                _ => Op::WaitNotify { ids: vec![id].into() },
            };
            program.ranks[rank].ops.push(op);
        }
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every library variant analyzes clean on the acceptance rank grid.
    #[test]
    fn library_variants_analyze_clean(which in 0usize..4, bytes in 1u64..65536) {
        for p in [3usize, 6, 16, 64] {
            let program = match which {
                0 => ring_allreduce_schedule(p, bytes),
                1 => bcast_bst_schedule(p, bytes, 1.0),
                2 => reduce_bst_schedule(p, bytes, 0.5),
                _ => alltoall_direct_schedule(p, bytes),
            };
            let report = analyze(&program).unwrap();
            prop_assert!(report.is_clean(), "variant {} at p={} got {:?}", which, p, report.errors);
        }
    }

    /// All twelve MPI allreduce baselines analyze clean on the same grid.
    #[test]
    fn mpi_baselines_analyze_clean(bytes in 1u64..65536) {
        for variant in MpiAllreduceVariant::all() {
            for p in [3usize, 6, 16, 64] {
                let report = analyze(&variant.schedule(p, bytes, 1)).unwrap();
                prop_assert!(
                    report.is_clean(),
                    "{} at p={} got {:?}", variant.label(), p, report.errors
                );
            }
        }
    }

    /// Differential: the analyzer certifies a random one-sided program
    /// deadlock-free exactly when the engine completes it.
    #[test]
    fn analyzer_and_engine_agree_on_deadlock_freedom(seed in 0u64..512) {
        let program = random_one_sided_program(seed);
        let report = analyze(&program).unwrap();
        let engine = Engine::new(
            ClusterSpec::homogeneous(program.num_ranks(), 1),
            CostModel::test_model(),
        );
        let ran = engine.run(&program);
        match ran {
            Ok(_) => prop_assert!(
                report.is_deadlock_free(),
                "engine completed but the analyzer predicted {:?}", report.errors
            ),
            Err(SimError::Deadlock { .. }) => prop_assert!(
                !report.is_deadlock_free(),
                "engine deadlocked but the analyzer certified the schedule"
            ),
            Err(other) => prop_assert!(false, "unexpected engine error: {other}"),
        }
    }

    /// Differential over interned chains: pieces of one shared segment supply
    /// each other, seeded chains complete, and seedless chains starve — the
    /// analyzer must agree with the engine on every combination.
    #[test]
    fn analyzer_and_engine_agree_on_interned_chains(
        p in 3usize..24,
        stages in 1usize..4,
        flags in 0usize..4,
    ) {
        let (reversed, seeded) = (flags & 1 != 0, flags & 2 != 0);
        let program = chain_program(p, stages, reversed, seeded);
        let report = analyze(&program).unwrap();
        let engine = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
        match engine.run(&program) {
            Ok(_) => prop_assert!(
                report.is_deadlock_free(),
                "engine completed the chain but the analyzer predicted {:?}", report.errors
            ),
            Err(SimError::Deadlock { .. }) => prop_assert!(
                !report.is_deadlock_free(),
                "engine starved on the seedless chain but the analyzer certified it"
            ),
            Err(other) => prop_assert!(false, "unexpected engine error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Scale: the million-rank ring through its two interned segments.
// ---------------------------------------------------------------------------

/// Analyzing the compiled `p = 2^20` windowed ring touches the two unique
/// rank-relative segments plus one O(p) class scan — far inside the fig17
/// 8 GiB budget.
#[test]
fn million_rank_ring_analyzes_clean_within_budget() {
    let source = WindowedRingSource::new(1 << 20, 4, 1 << 16);
    let compiled = CompiledProgram::from_source(&source).unwrap();
    let report = analyze_compiled(&compiled);
    assert!(report.is_clean(), "got {:?}", report.errors);
    assert_eq!(report.num_ranks, 1 << 20);
    assert!(report.classes <= 2, "uniform ring must intern to two segments, got {}", report.classes);
    assert!(report.pieces <= 3, "got {} pieces", report.pieces);
    if let Some(rss) = peak_rss_bytes() {
        assert!(rss < 4 << 30, "peak RSS {rss} bytes is not 'well under' 8 GiB");
    }
}

/// Per-rank straggler noise lives in the compute durations, which the arena
/// keeps out of its records: the noisy SSP cube is one class, like its
/// noise-free twin.
#[test]
fn noisy_ssp_cube_analyzes_as_one_class() {
    let cfg = SspScaleConfig::new(64, 2);
    assert!(cfg.jitter > 0.0 && cfg.hiccup_prob > 0.0, "default noise is on");
    let report = analyze(&ssp_scale_program(&cfg)).unwrap();
    assert_eq!(report.classes, 1);
    assert!(report.is_deadlock_free(), "got {:?}", report.errors);
}
